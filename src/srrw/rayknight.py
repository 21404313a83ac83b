"""Local-time profiles at inverse local times, sampled without the walk.

For an edge x of either sign and T = T+_{x,m} (first time the edge
x -> x+1 is crossed m times) the profile y -> l+(T, y) is a spatial Markov
chain driven by one independent embedded chain per site, each read at a
single index.  A sweep draws l = idx + eta_s[idx] at each site s in turn:

  right of x, from x+1 at idx = m - (x >= 0) (the walk stands at x+1; its
  site chain has exactly idx completed opposite-direction departures):
      s < 0:   passes; l(s) is the draw, idx(s+1) = l(s) + 1
      s >= 0:  l(s) is the draw, idx(s+1) = l(s), absorbing at 0
  left of x, from x-1 at idx = m:
      s >= 0:  passes; l(s) = draw + 1 (the walk ends right of s, so
               it crossed s -> s+1 once more than back), idx(s-1) = l(s)
      s < 0:   l(s) is the draw, idx(s-1) = l(s), absorbing at 0.

Since T ends at x+1, T = 2 sum_y l+(T, y) - x - 1.  Because each site chain
is consulted at one index only, drawing from the per-index marginal laws
(exact up to the mixing cutoff, stationary beyond) reproduces the exact
joint profile law.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import SimulationBudgetError
from .eta import EtaKernel, MarginalTable, StationaryResult, marginal_law_table, stationary_distribution
from .walk import _as_generator
from .weights import WeightFunction

ABSORB_CAP_SLACK = 4096


def tail_probe_site(m: int, g_m: float) -> int:
    """Site 2m - 4 sqrt(m g) probed by the l_gt/l_lt tail events; it must be >= 1."""
    return int(2 * m - 4.0 * math.sqrt(m * g_m))


class RayKnightSampler:
    """Batch profile sampler for one weight function.

    Builds the embedded-chain kernel, its stationary law and the per-index
    marginal table once; all sampling methods are vectorized across replicas
    and deterministic given the generator passed in.
    """

    def __init__(self, w: WeightFunction):
        self.weight = w
        self.kernel = EtaKernel(w)
        self.stationary: StationaryResult = stationary_distribution(self.kernel)
        self.table: MarginalTable = marginal_law_table(self.kernel, self.stationary)
        self.sigma2 = self.stationary.sigma2

    # -- core draws -----------------------------------------------------------

    def _advance(self, idx: np.ndarray, rng) -> np.ndarray:
        """l-value transition: idx + (chain state after idx steps)."""
        out = self.table.draw(idx, rng)
        out += idx
        return out

    # -- the sweep engine -----------------------------------------------------

    def _sweep(self, x: int, m: int, R: int, rng, right_end=None, left_end=None):
        """Right sweep from x+1, then left sweep from x-1, of R profiles at T+_{x,m}.

        Yields (side, site, act, lact) once per site: act indexes the
        replicas still alive, in their current order, and lact holds their
        l-values at the site, drawn by one `_advance` call, zeros not yet
        dropped.  The right sweep starts at index m - (x >= 0), the left at
        m.  A site passes when it lies between the origin and the walk's end
        at x+1: right sites s < 0 yield the draw l and hand on l + 1, left
        sites s >= 0 yield and hand on l + 1; neither absorbs.  Every other
        site yields l, hands it on and absorbs at 0.  A side stops after its
        end site, or on absorption; a side with no end runs to absorption
        and raises SimulationBudgetError past 4m + |x| + ABSORB_CAP_SLACK
        sites.  m < 1 raises ValueError.
        """
        if m < 1:
            raise ValueError(f"need m >= 1, not m={m}")
        cap = 4 * m + abs(x) + ABSORB_CAP_SLACK
        for side, step, end, idx in (("right", 1, right_end, m - (x >= 0)), ("left", -1, left_end, m)):
            act = np.arange(R)
            lact = np.full(R, idx, dtype=np.int64)
            site = x + step
            while len(act) and (end is None or step * (end - site) >= 0):
                lact = self._advance(lact, rng)
                passes = site < 0 if step > 0 else site >= 0
                if passes and step < 0:
                    lact += 1
                yield side, site, act, lact
                if end is None and abs(site - x) > cap:
                    raise SimulationBudgetError(f"{side} sweep failed to absorb within cap")
                if not passes:
                    keep = lact > 0
                    act, lact = act[keep], lact[keep]
                elif step > 0:
                    lact = lact + 1
                site += step

    # -- batch consumers of the sweep -----------------------------------------

    def batch_profile_window(self, x: int, m: int, replicas: int, seed, y_lo: int, y_hi: int):
        """Values of l+(T, y) for y in [y_lo, y_hi], one row per replica.

        Returns dict y -> int array (replicas,).
        """
        out = {y: np.zeros(replicas, dtype=np.int64) for y in range(y_lo, y_hi + 1)}
        if x in out:
            out[x][:] = m
        for _, y, act, lact in self._sweep(x, m, replicas, _as_generator(seed), right_end=y_hi, left_end=y_lo):
            if y in out:
                out[y][act] = lact
        return out

    def batch_profile_sums(self, x: int, m: int, replicas: int, seed):
        """Counters y -> count of nonzero values, sum and sum of squares of
        l+(T, y) over the replicas, for every site y of one sweep per side to
        absorption; each site's sums are int64, exact while replicas * max(l+)^2 < 2^63."""
        nonzero, total, squares = Counter({x: replicas}), Counter({x: replicas * m}), Counter({x: replicas * m * m})
        for _, y, _, lact in self._sweep(x, m, replicas, _as_generator(seed)):
            nonzero[y], total[y], squares[y] = int(np.count_nonzero(lact)), int(lact.sum()), int(lact @ lact)
        return nonzero, total, squares

    def batch_tail_events(self, m: int, replicas: int, seed, g_m: float):
        """Frequencies of the range/profile tail events at T+_{0,m}.

        Events (g = g(m) supplied as a number):
          rho:    rightmost site with l+ > 0 reaches 2m + sqrt(m) g
          lam:    leftmost site with l- > 0 reaches -(2m + sqrt(m) g)
          l_gt:   l+ at site 2m - 4 sqrt(m g) is >= 3 sqrt(m g)
          l_lt:   min of l+ over sites 1 .. 2m - 4 sqrt(m g) is <= sqrt(m g)
        """
        R = replicas
        sqrt_mg = math.sqrt(m * g_m)
        x0 = tail_probe_site(m, g_m)
        if x0 < 1:
            raise ValueError("m too small for the configured growth function")
        s_rho = math.ceil(2 * m + math.sqrt(m) * g_m)
        t_lam = -s_rho - 1
        # all replicas are alive at site 1; one absorbed before x0 keeps its 0 as min and x0 value
        runmin = np.full(R, np.iinfo(np.int64).max)
        val_x0 = np.zeros(R, dtype=np.int64)
        hits = {"right": 0, "left": 0}
        for side, y, act, lact in self._sweep(0, m, R, _as_generator(seed), right_end=s_rho, left_end=t_lam):
            if side == "right" and y <= x0:
                runmin[act] = np.minimum(runmin[act], lact)
                if y == x0:
                    val_x0[act] = lact
            if y in (s_rho, t_lam):
                hits[side] = int(np.count_nonzero(lact))
            # dropping this site's arrays before the next draw changes how the
            # allocator reuses the draw's temporaries: 15-20% faster here, slower
            # in batch_total_time, so only this consumer does it
            del act, lact
        return {
            "rho": hits["right"],
            "lam": hits["left"],
            "l_gt": int((val_x0 >= 3.0 * sqrt_mg).sum()),
            "l_lt": int((runmin <= sqrt_mg).sum()),
            "replicas": R,
            "x0": x0,
            "s_rho": s_rho,
        }

    def batch_total_time(self, x: int, m: int, replicas: int, seed):
        """Total time T = T+_{x,m} per replica, via T = 2 sum_y l+(T,y) - x - 1."""
        total = np.full(replicas, m, dtype=np.int64)
        for _, _, act, lact in self._sweep(x, m, replicas, _as_generator(seed)):
            np.add.at(total, act, lact)  # act holds each replica once; faster than total[act] += lact
        return 2 * total - x - 1

    def batch_boundary_sums(self, x: int, m: int, replicas: int, seed, boundary: float):
        """(W1, W2): profile mass beyond +-boundary at T+_{x,m}, per replica."""
        w = {"right": np.zeros(replicas, dtype=np.int64), "left": np.zeros(replicas, dtype=np.int64)}
        for side, y, act, lact in self._sweep(x, m, replicas, _as_generator(seed)):
            if (y > boundary) if side == "right" else (y < -boundary):
                w[side][act] += lact
        return w["right"], w["left"]
