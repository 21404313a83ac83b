"""Exact brute-force oracles by full path enumeration.

These enumerate every sign sequence (optionally with pruning) and accumulate
exact path probabilities under the walk rule.  They are slow by design and
exist to pin down small-scale laws independently of the samplers.
"""

from __future__ import annotations

from collections import defaultdict

from .weights import WeightFunction

MAX_ENUM_DEPTH = 24


def exact_position_law(w: WeightFunction, k: int, prefix=()) -> dict:
    """Exact law of X(k), optionally conditioned on a +-1 step prefix.

    Conditioning renormalizes over the continuations of the prefix.
    """
    if k > MAX_ENUM_DEPTH:
        raise ValueError(f"k={k} too deep for full enumeration (max {MAX_ENUM_DEPTH})")
    if len(prefix) > k:
        raise ValueError("prefix longer than k")
    law: dict = defaultdict(float)
    diffs: dict = defaultdict(int)
    pos = 0
    for s in prefix:
        diffs[pos] += int(s)
        pos += int(s)

    def recurse(pos: int, depth: int, prob: float):
        if depth == k:
            law[pos] += prob
            return
        p = w.p_right(diffs[pos])
        diffs[pos] += 1
        recurse(pos + 1, depth + 1, prob * p)
        diffs[pos] -= 1
        if p < 1.0:
            diffs[pos] -= 1
            recurse(pos - 1, depth + 1, prob * (1.0 - p))
            diffs[pos] += 1

    recurse(pos, len(prefix), 1.0)
    return dict(law)


def edge_hit_profile_law(
    w: WeightFunction,
    m: int,
    site: int,
    max_depth: int = 40,
    prune: float = 1e-13,
):
    """Exact law of l+(T, site) at T = first time l+(k, 0) reaches m.

    Paths are enumerated until the m-th rightward departure from 0, cut at
    max_depth steps.  Returns (law dict, captured mass); 1 - captured is the
    probability the hitting time exceeds max_depth plus pruned mass.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    law: dict = defaultdict(float)
    captured = 0.0
    diffs: dict = defaultdict(int)
    lplus: dict = defaultdict(int)

    def recurse(pos: int, depth: int, prob: float, hits: int):
        nonlocal captured
        if prob < prune or depth == max_depth:
            return
        p = w.p_right(diffs[pos])
        # right branch
        new_hits = hits + 1 if pos == 0 else hits
        diffs[pos] += 1
        lplus[pos] += 1
        if pos == 0 and new_hits == m:
            law[lplus[site]] += prob * p
            captured += prob * p
        else:
            recurse(pos + 1, depth + 1, prob * p, new_hits)
        diffs[pos] -= 1
        lplus[pos] -= 1
        # left branch
        if p < 1.0:
            diffs[pos] -= 1
            recurse(pos - 1, depth + 1, prob * (1.0 - p), hits)
            diffs[pos] += 1

    recurse(0, 0, 1.0, 0)
    return dict(law), captured
