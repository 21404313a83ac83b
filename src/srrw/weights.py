"""Weight functions driving the self-repelling step rule.

A weight w must be positive, nondecreasing, and satisfy w(Z) - w(-Z) > 0 on
the validated window (the finite proxy for the asymmetry condition at
infinity).  Three parametric families are shipped: exponential, linear ramp
and explicit table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationRangeError, InvalidWeightError

_EXP_ARG_MAX = 700.0  # exp overflow guard for float64
VALIDATE_WINDOW = 64  # |z| range on which a new weight is validated


@dataclass(frozen=True)
class WeightFunction:
    """Validated weight w: Z -> (0, inf).

    family:
      - "exponential": params = (rate,), w(z) = exp(rate * z)
      - "linear_ramp": params = (slope, floor), w(z) = floor + slope * max(z, 0)
      - "table": params = (z0, (v0, v1, ...)), values on z0..z0+len-1,
        extended by constancy on both sides
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in ("exponential", "linear_ramp", "table"):
            raise InvalidWeightError(f"unknown weight family {self.family!r}")
        self.validate(VALIDATE_WINDOW)

    # -- evaluation ---------------------------------------------------------

    def w(self, z: int) -> float:
        if self.family == "exponential":
            (rate,) = self.params
            arg = rate * z
            if arg > _EXP_ARG_MAX:
                raise EvaluationRangeError(f"exp weight overflows at z={z}")
            return math.exp(arg)
        if self.family == "linear_ramp":
            slope, floor = self.params
            return floor + slope * max(z, 0)
        z0, values = self.params
        i = min(max(z - z0, 0), len(values) - 1)
        return float(values[i])

    def p_right(self, d: int) -> float:
        """Step rule: probability of a rightward step at signed edge
        difference d = l+(k, x) - l-(k, x), equal to w(-d)/(w(d)+w(-d))."""
        if self.family == "exponential":
            # numerically stable sigmoid form of w(-d)/(w(d)+w(-d))
            (rate,) = self.params
            a = 2.0 * rate * d
            if a >= 0:
                e = math.exp(-min(a, _EXP_ARG_MAX))
                return e / (1.0 + e)
            e = math.exp(max(a, -_EXP_ARG_MAX))
            return 1.0 / (1.0 + e)
        wp = self.w(d)
        wm = self.w(-d)
        return wm / (wp + wm)

    def p_right_table(self, dmax: int) -> np.ndarray:
        """p_right over d = -dmax..dmax, validated on that window first."""
        self.validate(dmax)
        return np.array([self.p_right(d) for d in range(-dmax, dmax + 1)])

    # -- validation ---------------------------------------------------------

    def validate(self, window: int) -> None:
        zs = range(-window, window + 1)
        vals = [self.w(z) for z in zs]
        if min(vals) <= 0.0:
            raise InvalidWeightError(f"w must be positive on [-{window}, {window}]")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise InvalidWeightError(f"w must be nondecreasing on [-{window}, {window}]")
        if vals[-1] - vals[0] <= 0.0:
            raise InvalidWeightError(
                f"asymmetry violated: w({window}) - w(-{window}) = {vals[-1] - vals[0]}"
            )

    # -- (de)serialization ---------------------------------------------------

    def spec(self) -> dict:
        if self.family == "exponential":
            return {"family": "exponential", "rate": self.params[0]}
        if self.family == "linear_ramp":
            return {"family": "linear_ramp", "slope": self.params[0], "floor": self.params[1]}
        z0, values = self.params
        return {"family": "table", "z0": z0, "values": list(values)}

    @staticmethod
    def from_spec(spec: dict) -> "WeightFunction":
        fam = spec["family"]
        if fam == "exponential":
            return WeightFunction("exponential", (float(spec["rate"]),))
        if fam == "linear_ramp":
            return WeightFunction("linear_ramp", (float(spec["slope"]), float(spec["floor"])))
        if fam == "table":
            return WeightFunction("table", (int(spec["z0"]), tuple(float(v) for v in spec["values"])))
        raise InvalidWeightError(f"unknown weight family {fam!r}")

    @staticmethod
    def parse(text: str) -> "WeightFunction":
        """Parse CLI shorthand: exp:RATE | ramp:SLOPE:FLOOR | table:Z0:v,v,..."""
        parts = text.split(":")
        kind = parts[0].lower()
        try:
            if kind == "exp":
                return WeightFunction("exponential", (float(parts[1]),))
            if kind == "ramp":
                slope = float(parts[1])
                floor = float(parts[2]) if len(parts) > 2 else 1.0
                return WeightFunction("linear_ramp", (slope, floor))
            if kind == "table":
                z0 = int(parts[1])
                values = tuple(float(v) for v in parts[2].split(","))
                return WeightFunction("table", (z0, values))
        except (IndexError, ValueError) as exc:
            raise InvalidWeightError(f"cannot parse weight spec {text!r}: {exc}") from exc
        raise InvalidWeightError(f"unknown weight spec {text!r}")
