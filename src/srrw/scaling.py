"""Scaling bookkeeping for the local-CLT regime.

theta_u(v) = (u/2)(1 - |v|/u) is the leading triangular profile; beta_n is
the variance scale 2*sigma^2*((1+|x|/n)^3 + (1-|x|/n)^3)/3 entering the
Gaussian asymptotics of the inverse-local-time hitting probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_ALPHA = 0.75


def theta(u: float, v: float) -> float:
    if u <= 0:
        raise ValueError("u must be > 0")
    return 0.5 * u * (1.0 - abs(v) / u)


def beta_n(n: float, x: float, sigma2: float) -> float:
    if n <= 0:
        raise ValueError("n must be > 0")
    r = abs(x) / n
    return 2.0 * sigma2 * ((1.0 + r) ** 3 + (1.0 - r) ** 3) / 3.0


@dataclass(frozen=True)
class ScalingParams:
    n: int
    x: int
    c: float
    alpha: float
    sigma2: float
    theta_n_x: float
    beta_n: float
    n_x: float
    N_x: float
    h_n_x: float


def scaling_params(n: int, x: int, c: float, alpha: float = DEFAULT_ALPHA, sigma2: float = 1.0) -> ScalingParams:
    """Populate the scaled quantities at (n, x, c); rejects |x| > n - n^alpha."""
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    if abs(x) > n - n**alpha:
        raise ValueError(f"|x|={abs(x)} outside the admissible range n - n^alpha = {n - n**alpha:.2f}")
    return ScalingParams(
        n=n,
        x=x,
        c=c,
        alpha=alpha,
        sigma2=sigma2,
        theta_n_x=theta(float(n), float(x)),
        beta_n=beta_n(n, x, sigma2),
        n_x=(1.0 + abs(x) / n) * n,
        N_x=n - math.sqrt(n) * math.log(n) - x,
        h_n_x=c * n**1.5 - abs(x) / 2.0,
    )
