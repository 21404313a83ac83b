"""Batched walk simulation: one lockstep engine, `_Lockstep.run`, and three drivers.

The step rule only needs d = l+ - l- at the current site, so each replica of
a block keeps a row of `width` sites in one flat array (int8 while d fits,
int16 beyond) and all rows step together, one uniform each per step.  The
engine walks in tiles: one RNG call draws the uniforms of up to TILE steps,
in the order per-step calls would, and each chunk of CHUNK rows takes all of
the tile's steps before the next chunk starts, so the cache lines a chunk
touches, and its temporaries, stay in cache.  A driver with a hook walks one
step per tile: the hook sees each row's old position and sign and returns the
rows it is done with; they keep stepping until a quarter of the block is
done, then the block is compacted.  Window and depth are guesses: on overflow
the block is re-run from its seed with doubled capacity, and as p_right(d)
does not depend on it, with the same output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationBudgetError
from .walk import _as_generator, _step_sign
from .weights import WeightFunction


TILE = 16  # steps drawn by one RNG call
CHUNK = 8192  # rows that take a tile's steps together


class _NeedWider(Exception):
    pass


class _NeedDeeper(Exception):
    pass


def default_width(steps: int) -> int:
    return 2 * (int(3.5 * math.sqrt(max(steps, 4))) + 48)


def _retrying(fn, width: int, dmax: int, max_doublings: int = 10):
    for _ in range(max_doublings):
        if dmax > np.iinfo(np.int16).max:
            # D stays within +-(dmax - 1), which int16 holds only up to here
            raise SimulationBudgetError(f"signed edge differences would exceed int16 (depth {dmax})")
        try:
            return fn(width, dmax)
        except _NeedWider:
            width *= 2
        except _NeedDeeper:
            dmax *= 2
    raise SimulationBudgetError(f"simulation kept overflowing its site window after {max_doublings} tries")


class _Lockstep:
    """Flat state of one block of replicas, all started at site 0."""

    def __init__(self, w: WeightFunction, replicas: int, width: int, dmax: int, seed,
                 want_lplus: bool = False, d_init=None):
        self.rng = _as_generator(seed)
        self.dmax, self.width, self.off = dmax, width, width // 2
        # p_right(d) at index d, negative d wrapping from the end
        self.ptab = np.roll(w.p_right_table(dmax), -dmax)
        self.base = np.arange(replicas) * width + self.off  # flat index of site 0, per row
        # D stays within +-(dmax - 1)
        self.D = np.zeros(replicas * width, dtype=np.int8 if dmax <= 128 else np.int16)
        for site, val in (d_init or {}).items():
            self.D[self.base + site] = val
        self.LP = np.zeros(replicas * width, dtype=np.int32) if want_lplus else None
        self.fi = self.base.copy()  # flat index of the current site, per row
        # replica id and finished mark per row; only runs with a hook retire rows
        self.idx = self.retired = None

    def positions(self) -> np.ndarray:
        return self.fi - self.base

    def run(self, steps: int, on_step=None) -> None:
        """Advance up to `steps` steps, in tiles of up to TILE steps over
        chunks of CHUNK rows.  With on_step, each tile is one step:
        on_step(t, old, s) after step t gets each row's old position and
        sign and returns finished rows or None; the run ends early once every
        row is finished."""
        n = len(self.fi)
        if on_step is not None:
            self.idx, self.retired = np.arange(n), np.zeros(n, dtype=bool)
        tile = TILE if on_step is None else 1
        ubuf, sbuf = np.empty(tile * n), np.empty(n, dtype=self.D.dtype)
        t = 0
        while t < steps and n:
            pos = self.positions()
            reach = max(int(pos.max()), -int(pos.min()))
            if reach >= self.off - 1:
                raise _NeedWider
            # a replica moves one site per step, so none meets the edge within the tile
            k = min(tile, steps - t, self.off - 1 - reach)
            u, s = ubuf[: k * n].reshape(k, n), sbuf[:n]
            self.rng.random(out=u)  # row j: the draws of step t+j+1, as per-step calls give them
            for c in range(0, n, CHUNK):
                s[c : c + CHUNK] = self._steps(u[:, c : c + CHUNK], self.fi[c : c + CHUNK])
            t += k
            if on_step is None:
                continue
            done = on_step(t, pos, s)  # a one-step tile: pos holds the old positions
            if done is None or not len(done):
                continue
            self.retired[done] = True
            if self.retired.sum() >= 0.25 * len(self.idx):
                self._compact()
                n = len(self.fi)

    def _steps(self, u, fi) -> np.ndarray:
        """One step per row of u for the rows whose current flat index is fi,
        advanced in place; returns the last step's signs."""
        D, LP = self.D, self.LP
        for uj in u:
            d = D[fi]
            if d.max() >= self.dmax - 1 or d.min() <= 1 - self.dmax:
                raise _NeedDeeper
            right = uj < self.ptab[d.astype(np.intp)]
            s = 2 * right.astype(D.dtype) - 1  # D's dtype: a wider s slows the scatter
            D[fi] = d + s
            if LP is not None:
                LP[fi] += right
            fi += s
        return s

    def _compact(self) -> None:
        keep = ~self.retired
        pos = self.positions()[keep]
        self.D = self.D.reshape(-1, self.width)[keep].ravel()
        if self.LP is not None:
            self.LP = self.LP.reshape(-1, self.width)[keep].ravel()
        self.idx = self.idx[keep]
        self.retired = np.zeros(len(self.idx), dtype=bool)
        self.base = np.arange(len(self.idx)) * self.width + self.off
        self.fi = self.base + pos


def final_positions(w: WeightFunction, steps: int, replicas: int, seed, want_lplus: bool = False,
                    snapshots=()):
    """Run `steps` lockstep steps; returns positions (and l+ rows if asked).

    Returns (pos, lplus, site_lo): lplus is (replicas, width) or None;
    site_lo is the site of the first l+ column.  With `snapshots`, returns
    (pos, lplus, site_lo, {k: positions at time k}).
    """
    asked = {int(s) for s in snapshots}
    snap_at = {s for s in asked if 1 <= s <= steps}

    def run(width, dmax):
        walk = _Lockstep(w, replicas, width, dmax, seed, want_lplus=want_lplus)
        snaps, t = {}, 0
        for stop in sorted(snap_at | {steps}):  # so no tile crosses a snapshot time
            walk.run(stop - t)
            t = stop
            if stop in snap_at:
                snaps[stop] = walk.positions()
        lplus = None if walk.LP is None else walk.LP.reshape(replicas, width)
        out = (walk.positions(), lplus, -walk.off)
        return out + (snaps,) if asked else out

    return _retrying(run, default_width(steps), 96)


def edge_hit_times(w: WeightFunction, edge_site: int, levels, replicas: int, seed, t_cap: int,
                   capture_window=None):
    """First times the directed edge edge_site -> edge_site+1 is crossed
    `levels[i]` times, walked in lockstep up to t_cap steps.

    Returns (times, profiles, unfinished):
      times: (replicas, len(levels)) int64, -1 where not attained by t_cap
      profiles: (replicas, y_hi - y_lo + 1) int64, l+(T_final, y) for y in
        capture_window=(y_lo, y_hi), recorded when the last level is hit
      unfinished: replicas that did not hit the last level within t_cap
    """
    levels = [int(m) for m in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])) or levels[0] < 1:
        raise ValueError("levels must be strictly increasing and >= 1")
    L = len(levels)
    lev = np.array(levels, dtype=np.int64)

    def run(width, dmax):
        walk = _Lockstep(w, replicas, width, dmax, seed, want_lplus=capture_window is not None)
        times = np.full((replicas, L), -1, dtype=np.int64)
        prof = None
        if capture_window is not None:
            y_lo, y_hi = capture_window
            if y_lo < -walk.off or y_hi >= width - walk.off:
                raise _NeedWider
            ys = np.arange(y_lo, y_hi + 1)
            prof = np.zeros((replicas, len(ys)), dtype=np.int64)
        # per replica id: crossings so far and the index of the next level
        cnt = np.zeros(replicas, dtype=np.int64)
        nxt = np.zeros(replicas, dtype=np.int64)

        def on_step(t, old, s):
            rows = np.flatnonzero((old == edge_site) & (s > 0))
            if not len(rows):
                return None
            ids = walk.idx[rows]
            cnt[ids] += 1
            k = nxt[ids]
            hit = k < L
            hit[hit] = cnt[ids[hit]] == lev[k[hit]]
            rows, ids = rows[hit], ids[hit]
            times[ids, nxt[ids]] = t
            nxt[ids] += 1
            fin = nxt[ids] == L
            if prof is not None and fin.any():
                prof[ids[fin]] = walk.LP[walk.base[rows[fin]][:, None] + ys]
            return rows[fin]

        walk.run(t_cap, on_step)
        return times, prof, walk.idx[~walk.retired]

    # profiles concentrate within ~2*levels[-1] sites of the edge; start
    # narrow and let the overflow retry widen on demand
    guess = 2 * (8 * levels[-1] + abs(edge_site) + 64)
    return _retrying(run, min(guess, default_width(t_cap)), 96, max_doublings=14)


def kernel_transition_samples(w: WeightFunction, eta_state: int, direction: str, replicas: int, seed):
    """Observe one embedded-chain transition per replica from walk dynamics.

    The site-0 signed difference is imprinted to match `eta_state` via a
    positive-probability alternating prefix (0,+1,0,...)^k; the walk then
    runs under the step rule until its first departure from 0 in `direction`,
    and the chain value after that departure is recorded.  Only the walk rule
    and the departure bookkeeping are used - not the kernel's closed form.

    Returns (values, censored): values int64 (finished replicas), censored
    count of replicas with no such departure within 100 000 steps.
    """
    want = _step_sign(direction)
    d0 = -eta_state if want == 1 else eta_state
    d_init = {0: d0}
    if d0:
        d_init[1 if d0 > 0 else -1] = -d0

    def run(width, dmax):
        walk = _Lockstep(w, replicas, width, dmax, seed, d_init=d_init)
        out = np.empty(replicas, dtype=np.int64)
        got = np.zeros(replicas, dtype=bool)

        def on_step(t, old, s):
            rows = np.flatnonzero((old == 0) & (s == want))
            rows = rows[~got[walk.idx[rows]]]
            if not len(rows):
                return None
            ids = walk.idx[rows]
            d_after = walk.D[walk.base[rows]]
            out[ids] = -d_after if want == 1 else d_after
            got[ids] = True
            return rows

        walk.run(100_000, on_step)
        return out[got], int((~got).sum())

    return _retrying(run, 512, max(96, 4 * abs(eta_state) + 64))
