"""Exact single-trajectory dynamics with directed-edge local-time accounting.

The walk starts at 0 and steps right with probability w(-d)/(w(d)+w(-d))
where d = l+(k, x) - l-(k, x) at the current site x.  l+(k, x) counts the
crossings x -> x+1 among the first k steps, l-(k, x) the crossings x -> x-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SimulationBudgetError
from .weights import WeightFunction

MAX_STEPS_PER_RUN = 100_000_000


@dataclass
class LocalTimeTable:
    """Sparse directed-edge local times at a fixed time."""

    plus: dict = field(default_factory=dict)
    minus: dict = field(default_factory=dict)

    def l_plus(self, x: int) -> int:
        return self.plus.get(x, 0)

    def l_minus(self, x: int) -> int:
        return self.minus.get(x, 0)

    def total(self) -> int:
        return sum(self.plus.values()) + sum(self.minus.values())

    def visited_sites(self):
        return sorted(set(self.plus) | set(self.minus))


@dataclass
class Trajectory:
    """A realized walk: steps (+-1), positions X(0..k), final local times."""

    weight: WeightFunction
    steps: np.ndarray
    positions: np.ndarray
    localtimes: LocalTimeTable

    def __len__(self) -> int:
        return len(self.steps)

    def local_times_at(self, T: int) -> LocalTimeTable:
        """Rebuild the local-time table after the first T steps."""
        if not 0 <= T <= len(self.steps):
            raise ValueError(f"T={T} outside trajectory of length {len(self.steps)}")
        table = LocalTimeTable()
        pos = self.positions
        for j in range(T):
            x = int(pos[j])
            if self.steps[j] > 0:
                table.plus[x] = table.plus.get(x, 0) + 1
            else:
                table.minus[x] = table.minus.get(x, 0) + 1
        return table


@dataclass
class EtaSequence:
    """Embedded chain of signed crossing differences at one site.

    values[j] is the chain state after the j-th departure in the tracked
    direction (values[0] = 0 before any such departure); taus[j] is the
    departure count at which it was recorded.
    """

    site: Optional[int]
    direction: str
    values: np.ndarray
    taus: np.ndarray


def simulate_walk(w: WeightFunction, steps: int, seed) -> Trajectory:
    """Simulate `steps` steps of the walk; deterministic given the seed.

    `seed` may be an int, a SeedSequence, or a Generator.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > MAX_STEPS_PER_RUN:
        raise SimulationBudgetError(f"steps={steps} exceeds per-run budget {MAX_STEPS_PER_RUN}")
    rng = _as_generator(seed)
    signs = np.empty(steps, dtype=np.int8)
    positions = np.empty(steps + 1, dtype=np.int64)
    positions[0] = 0
    table = LocalTimeTable()
    plus, minus = table.plus, table.minus
    p_right = w.p_right
    pcache: dict = {}
    x = 0
    uniforms = rng.random(steps)
    for j in range(steps):
        d = plus.get(x, 0) - minus.get(x, 0)
        p = pcache.get(d)
        if p is None:
            p = p_right(d)
            pcache[d] = p
        if uniforms[j] < p:
            signs[j] = 1
            plus[x] = plus.get(x, 0) + 1
            x += 1
        else:
            signs[j] = -1
            minus[x] = minus.get(x, 0) + 1
            x -= 1
        positions[j + 1] = x
    return Trajectory(weight=w, steps=signs, positions=positions, localtimes=table)


def inverse_local_time(t: Trajectory, x: int, m: int, direction: str) -> Optional[int]:
    """First time k with l^dir(k, x) = m, or None if not attained in t."""
    want = _step_sign(direction)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0
    count = 0
    pos = t.positions
    for j in range(len(t.steps)):
        if pos[j] == x and t.steps[j] == want:
            count += 1
            if count == m:
                return j + 1
    return None


def range_extremes(t: Trajectory, T: int):
    """(rho, lam) at time T: rho = sup{x : l+(T,x) > 0}, lam = inf{x : l-(T,x) > 0}.

    None stands in for the sup/inf of an empty set.
    """
    table = t.localtimes if T == len(t) else t.local_times_at(T)
    plus_sites = [x for x, v in table.plus.items() if v > 0]
    minus_sites = [x for x, v in table.minus.items() if v > 0]
    rho = max(plus_sites) if plus_sites else None
    lam = min(minus_sites) if minus_sites else None
    return rho, lam


def extract_eta_sequence(t: Trajectory, x: int, direction: str) -> EtaSequence:
    """Read off the embedded chain at site x from a trajectory.

    Enumerate departures from x in time order; the signed difference
    d_m = l+ - l- after m departures moves by +-1 each departure.  For
    direction "+" record -d at each rightward departure, for "-" record
    +d at each leftward departure; both sequences start with value 0.
    """
    want = _step_sign(direction)
    sign = -want
    pos = t.positions
    values = [0]
    taus = [0]
    d = 0
    m = 0
    for j in range(len(t.steps)):
        if pos[j] == x:
            m += 1
            d += int(t.steps[j])
            if t.steps[j] == want:
                values.append(sign * d)
                taus.append(m)
    return EtaSequence(
        site=x,
        direction=direction,
        values=np.array(values, dtype=np.int64),
        taus=np.array(taus, dtype=np.int64),
    )


def _step_sign(direction: str) -> int:
    """The step, +1 or -1, of a departure in direction "+" or "-"."""
    if direction not in ("+", "-"):
        raise ValueError(f"direction must be '+' or '-', not {direction!r}")
    return 1 if direction == "+" else -1


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
