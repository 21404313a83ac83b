"""Reference computations made apart from srrw, from the step rule alone.

The walk at a site with signed directed-edge difference d = l+ - l- steps
right with probability w(-d) / (w(d) + w(-d)); for the benchmark's weight
w(z) = exp(z) that is 1 / (1 + e^{2d}).  Nothing here imports srrw.
"""

from __future__ import annotations

import math

import numpy as np


def p_right_exp1(d: int) -> float:
    """Right-step probability for w(z) = exp(z) at edge difference d."""
    a = 2.0 * d
    if a >= 0:
        e = math.exp(-a)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(a))


def exact_position_laws(k_max: int, p_right=p_right_exp1) -> dict:
    """{k: {x: P(X(k) = x)}} for k = 1..k_max, by enumerating all 2^k_max paths."""
    laws = {k: {} for k in range(1, k_max + 1)}
    diff: dict = {}

    def go(x: int, t: int, prob: float) -> None:
        if t:
            laws[t][x] = laws[t].get(x, 0.0) + prob
        if t == k_max:
            return
        d = diff.get(x, 0)
        p = p_right(d)
        diff[x] = d + 1
        go(x + 1, t + 1, prob * p)
        diff[x] = d - 1
        go(x - 1, t + 1, prob * (1.0 - p))
        diff[x] = d

    go(0, 0, 1.0)
    return laws


def stationary_chain_law(p_right=p_right_exp1, lo: int = -40, hi: int = 40) -> tuple:
    """(states, probs) of the embedded site chain's stationary law.

    Kernel rows follow the closed form in srrw's README,
    P(h -> h + L - 1) = p(-h-L) prod_{i<L} (1 - p(-h-i)), truncated to
    [lo, hi]; the fixed point is found by a direct linear solve rather than
    srrw's power iteration.
    """
    n = hi - lo + 1
    P = np.zeros((n, n))
    for i, h in enumerate(range(lo, hi + 1)):
        surv = 1.0
        for L in range(100_000):
            pr = p_right(-h - L)
            j = h + L - 1 - lo
            if 0 <= j < n:
                P[i, j] += surv * pr
            surv *= 1.0 - pr
            if surv < 1e-18:
                break
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    probs = np.linalg.solve(A, rhs)
    return np.arange(lo, hi + 1), probs


def stationary_sigma2(p_right=p_right_exp1) -> float:
    """Variance of the stationary chain state: the sigma^2 of srrw's scaling laws."""
    states, probs = stationary_chain_law(p_right)
    mean = float(states @ probs)
    return float(((states - mean) ** 2) @ probs)


def n_fold_convolution(probs: np.ndarray, N: int) -> np.ndarray:
    """Masses of the sum of N iid copies of a lattice law, by repeated numpy.convolve."""
    out = np.array([1.0])
    for _ in range(N):
        out = np.convolve(out, probs)
    return out
