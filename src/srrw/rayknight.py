"""Local-time profiles at inverse local times, sampled without the walk.

For x <= 0 and T = T+_{x,m} (first time the edge x -> x+1 is crossed m
times) the profile y -> l+(T, y) is a spatial Markov chain driven by one
independent embedded chain per site, each read at a single index:

  right of x:  l(s) = idx(s) + eta_s[idx(s)]
      idx(x+1) = m        for x < 0   (the walk stands at x+1; its site
      idx(x+1) = m - 1    for x = 0    chain has exactly idx completed
                                       opposite-direction departures)
      idx(s)   = l(s-1) + 1   for x+1 < s <= 0
      idx(s)   = l(s-1)       for s >= 1, absorbing at 0
  left of x:   l(t) = l(t+1) + eta_t+1[l(t+1)], absorbing at 0.

Because each site chain is consulted at one index only, drawing from the
per-index marginal laws (exact up to the mixing cutoff, stationary beyond)
reproduces the exact joint profile law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationBudgetError
from .eta import EtaKernel, MarginalTable, StationaryResult, marginal_law_table, stationary_distribution
from .walk import _as_generator
from .weights import WeightFunction

ABSORB_CAP_SLACK = 4096


@dataclass
class ProfileSample:
    """One draw of the profile y -> l+(T, y) with derived l- and total time."""

    x: int
    m: int
    site_lo: int
    lplus: np.ndarray  # l+ at sites site_lo .. site_lo + len - 1
    lminus: np.ndarray
    T: int

    def sites(self) -> np.ndarray:
        return self.site_lo + np.arange(len(self.lplus))

    def l_plus(self, y: int) -> int:
        i = y - self.site_lo
        if 0 <= i < len(self.lplus):
            return int(self.lplus[i])
        return 0

    def l_minus(self, y: int) -> int:
        i = y - self.site_lo
        if 0 <= i < len(self.lminus):
            return int(self.lminus[i])
        return 0


def tail_probe_site(m: int, g_m: float) -> int:
    """Site 2m - 4 sqrt(m g) probed by the l_gt/l_lt tail events; it must be >= 1."""
    return int(2 * m - 4.0 * math.sqrt(m * g_m))


class RayKnightSampler:
    """Batch profile sampler for one weight function.

    Builds the embedded-chain kernel, its stationary law and the per-index
    marginal table once; all sampling methods are vectorized across replicas
    and deterministic given the generator passed in.
    """

    def __init__(self, w: WeightFunction, window=(-40, 40), eps_tail=1e-14):
        self.weight = w
        self.kernel = EtaKernel(w, eps_tail)
        self.stationary: StationaryResult = stationary_distribution(self.kernel, window)
        self.table: MarginalTable = marginal_law_table(
            self.kernel, window, stationary=self.stationary
        )
        self.sigma2 = self.stationary.sigma2

    # -- core draws -----------------------------------------------------------

    def _advance(self, idx: np.ndarray, rng) -> np.ndarray:
        """l-value transition: idx + (chain state after idx steps)."""
        return idx + self.table.draw(idx, rng)

    def _boundary_index(self, x: int, m: int) -> int:
        return m - 1 if x == 0 else m

    # -- single profile (reference implementation) ----------------------------

    def sample_profile(self, x: int, m: int, seed) -> ProfileSample:
        if m < 1:
            raise ValueError("m must be >= 1 (m = 0 is a degenerate inverse local time)")
        if x > 0:
            raise ValueError("profile sampler is defined for x <= 0")
        rng = _as_generator(seed)
        cap = 4 * m + abs(x) + ABSORB_CAP_SLACK

        right_vals = []
        idx = self._boundary_index(x, m)
        l = int(self._advance(np.array([idx]), rng)[0])
        right_vals.append(l)
        s = x + 2
        while True:
            if s <= 0:
                idx = l + 1
            else:
                if l == 0:
                    break
                idx = l
            l = int(self._advance(np.array([idx]), rng)[0])
            right_vals.append(l)
            s += 1
            if s - x > cap:
                raise SimulationBudgetError("right sweep failed to absorb within cap")

        left_vals = []
        l = m
        while l > 0:
            l = int(self._advance(np.array([l]), rng)[0])
            left_vals.append(l)
            if len(left_vals) > cap:
                raise SimulationBudgetError("left sweep failed to absorb within cap")

        site_lo = x - len(left_vals)
        lplus = np.array(left_vals[::-1] + [m] + right_vals, dtype=np.int64)
        lminus = self._derive_lminus(x, m, site_lo, lplus)
        T = 2 * int(lplus.sum()) + abs(x) - 1
        return ProfileSample(x=x, m=m, site_lo=site_lo, lplus=lplus, lminus=lminus, T=T)

    def _derive_lminus(self, x, m, site_lo, lplus):
        """l- from l+ by edge-crossing balance around the standing site x+1."""
        n = len(lplus)
        lminus = np.zeros(n, dtype=np.int64)
        for i in range(n):
            y = site_lo + i
            if y <= x:
                lminus[i] = lplus[i - 1] if i >= 1 else 0
            elif y == x + 1:
                lminus[i] = m - 1 if x == 0 else m
            elif y <= 0:
                lminus[i] = lplus[i - 1] + 1
            else:
                lminus[i] = lplus[i - 1]
        return lminus

    # -- batch sweeps ----------------------------------------------------------

    def batch_profile_window(self, x: int, m: int, replicas: int, seed, y_lo: int, y_hi: int):
        """Values of l+(T, y) for y in [y_lo, y_hi], one row per replica.

        Returns dict y -> int array (replicas,).
        """
        if m < 1 or x > 0:
            raise ValueError("need m >= 1 and x <= 0")
        rng = _as_generator(seed)
        out = {}
        R = replicas
        if y_lo <= x <= y_hi:
            out[x] = np.full(R, m, dtype=np.int64)

        # right sweep x+1 .. y_hi
        if y_hi >= x + 1:
            l = self._advance(np.full(R, self._boundary_index(x, m), dtype=np.int64), rng)
            if x + 1 >= y_lo:
                out[x + 1] = l.copy()
            for s in range(x + 2, y_hi + 1):
                if s <= 0:
                    l = self._advance(l + 1, rng)
                else:
                    alive = np.nonzero(l > 0)[0]
                    if len(alive):
                        l = l.copy()
                        l[alive] = self._advance(l[alive], rng)
                if y_lo <= s:
                    out[s] = l.copy()

        # left sweep x-1 .. y_lo
        if y_lo <= x - 1:
            l = np.full(R, m, dtype=np.int64)
            for t in range(x - 1, y_lo - 1, -1):
                alive = np.nonzero(l > 0)[0]
                if len(alive):
                    l = l.copy()
                    l[alive] = self._advance(l[alive], rng)
                out[t] = l.copy()
        return out

    def batch_tail_events(self, m: int, replicas: int, seed, g_m: float):
        """Frequencies of the range/profile tail events at T+_{0,m}.

        Events (g = g(m) supplied as a number):
          rho:    rightmost site with l+ > 0 reaches 2m + sqrt(m) g
          lam:    leftmost site with l- > 0 reaches -(2m + sqrt(m) g)
          l_gt:   l+ at site 2m - 4 sqrt(m g) is >= 3 sqrt(m g)
          l_lt:   min of l+ over sites 1 .. 2m - 4 sqrt(m g) is <= sqrt(m g)
        """
        rng = _as_generator(seed)
        R = replicas
        sqrt_mg = math.sqrt(m * g_m)
        x0 = tail_probe_site(m, g_m)
        if x0 < 1:
            raise ValueError("m too small for the configured growth function")
        s_rho = math.ceil(2 * m + math.sqrt(m) * g_m)
        lgt_thresh = 3.0 * sqrt_mg
        llt_thresh = sqrt_mg

        l = self._advance(np.full(R, m - 1, dtype=np.int64), rng)
        runmin = l.copy()
        val_x0 = l.copy() if x0 == 1 else None
        act = np.nonzero(l > 0)[0]
        lact = l[act]
        for s in range(2, s_rho + 1):
            if len(act) == 0 and s > x0:
                break
            if len(act):
                lact = self._advance(lact, rng)
            if s <= x0:
                # lact still holds this site's zeros, so dying replicas
                # drive their running min to 0 before compaction
                runmin[act] = np.minimum(runmin[act], lact)
                if s == x0:
                    val_x0 = np.zeros(R, dtype=np.int64)
                    val_x0[act] = lact
            if len(act):
                keep = lact > 0
                act, lact = act[keep], lact[keep]
        if val_x0 is None:  # absorbed before reaching x0
            val_x0 = np.zeros(R, dtype=np.int64)
        rho_hits = len(act)

        t_lam = -math.ceil(2 * m + math.sqrt(m) * g_m) - 1
        act = np.arange(R)
        lact = np.full(R, m, dtype=np.int64)
        for t in range(-1, t_lam - 1, -1):
            if len(act) == 0:
                break
            lact = self._advance(lact, rng)
            keep = lact > 0
            act, lact = act[keep], lact[keep]
        lam_hits = len(act)

        return {
            "rho": rho_hits,
            "lam": lam_hits,
            "l_gt": int((val_x0 >= lgt_thresh).sum()),
            "l_lt": int((runmin <= llt_thresh).sum()),
            "replicas": R,
            "x0": x0,
            "s_rho": s_rho,
        }

    def batch_total_time(self, x: int, m: int, replicas: int, seed):
        """Total time T = T+_{x,m} per replica, via T = 2 sum_y l+(T,y) + |x| - 1."""
        rng = _as_generator(seed)
        R = replicas
        cap = 4 * m + abs(x) + ABSORB_CAP_SLACK
        total = np.full(R, m, dtype=np.int64)

        l = self._advance(np.full(R, self._boundary_index(x, m), dtype=np.int64), rng)
        total += l
        s = x + 2
        while s <= 0:
            l = self._advance(l + 1, rng)
            total += l
            s += 1
        act = np.nonzero(l > 0)[0]
        lact = l[act]
        while len(act):
            lact = self._advance(lact, rng)
            total[act] += lact
            keep = lact > 0
            act, lact = act[keep], lact[keep]
            s += 1
            if s - x > cap:
                raise SimulationBudgetError("right sweep failed to absorb within cap")

        act = np.arange(R)
        lact = np.full(R, m, dtype=np.int64)
        depth = 0
        while len(act):
            lact = self._advance(lact, rng)
            total[act] += lact
            keep = lact > 0
            act, lact = act[keep], lact[keep]
            depth += 1
            if depth > cap:
                raise SimulationBudgetError("left sweep failed to absorb within cap")
        return 2 * total + abs(x) - 1

    def batch_boundary_sums(self, x: int, m: int, replicas: int, seed, boundary: float):
        """(W1, W2): profile mass beyond +-boundary at T+_{x,m}, per replica."""
        rng = _as_generator(seed)
        R = replicas
        cap = 4 * m + abs(x) + ABSORB_CAP_SLACK
        w1 = np.zeros(R, dtype=np.int64)
        w2 = np.zeros(R, dtype=np.int64)

        l = self._advance(np.full(R, self._boundary_index(x, m), dtype=np.int64), rng)
        s = x + 1
        if s > boundary:
            w1 += l
        while s + 1 <= 0:
            s += 1
            l = self._advance(l + 1, rng)
            if s > boundary:
                w1 += l
        act = np.nonzero(l > 0)[0]
        lact = l[act]
        while len(act):
            s += 1
            lact = self._advance(lact, rng)
            if s > boundary:
                w1[act] += lact
            keep = lact > 0
            act, lact = act[keep], lact[keep]
            if s - x > cap:
                raise SimulationBudgetError("right sweep failed to absorb within cap")

        act = np.arange(R)
        lact = np.full(R, m, dtype=np.int64)
        t = x
        while len(act):
            t -= 1
            lact = self._advance(lact, rng)
            if t < -boundary:
                w2[act] += lact
            keep = lact > 0
            act, lact = act[keep], lact[keep]
            if x - t > cap:
                raise SimulationBudgetError("left sweep failed to absorb within cap")
        return w1, w2


def rk_profile_sampler(w: WeightFunction, x: int, m: int, seed, sampler: RayKnightSampler | None = None) -> ProfileSample:
    """One exact draw of the profile y -> l+(T+_{x,m}, y) without simulating
    the walk.  Pass a prebuilt sampler to amortize kernel construction."""
    if sampler is None:
        sampler = RayKnightSampler(w)
    return sampler.sample_profile(x, m, seed)
