"""Scaling bookkeeping for the local-CLT regime.

theta_u(v) = (u/2)(1 - |v|/u) is the leading triangular profile; beta_n is
the variance scale 2*sigma^2*((1+|x|/n)^3 + (1-|x|/n)^3)/3 entering the
Gaussian asymptotics of the inverse-local-time hitting probabilities.
"""

from __future__ import annotations


def theta(u: float, v: float) -> float:
    if u <= 0:
        raise ValueError("u must be > 0")
    return 0.5 * u * (1.0 - abs(v) / u)


def beta_n(n: float, x: float, sigma2: float) -> float:
    if n <= 0:
        raise ValueError("n must be > 0")
    r = abs(x) / n
    return 2.0 * sigma2 * ((1.0 + r) ** 3 + (1.0 - r) ** 3) / 3.0
