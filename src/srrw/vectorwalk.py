"""Batched walk simulation: one lockstep engine, `_Lockstep.run`, and three drivers.

The step rule only needs d = l+ - l- at the current site, so each replica of
a block keeps a row of `width` sites in one flat array (int8 while d fits,
int16 beyond) and all rows step together, one uniform each per step: step t
of an n-row block reads the n draws after the (t-1)n of the earlier steps,
as per-step `rng.random(n)` calls would.  The engine walks in tiles of up to
TILE steps, and each chunk of CHUNK rows takes all of a tile's steps before
the next chunk starts, so the cache lines a chunk touches stay in cache.
Draws are read at their place in the stream (`_Stream`): the draw of row c
at step j of a tile is j*n + c draws into it.  A plain run reads a whole
tile at once, as one straight run of draws; a hooked run reads a chunk's
draws of each step by a Philox `advance`, so one TILE x CHUNK buffer serves
the whole block next to the signs and events it keeps.

A hooked run watches departures from one site in one direction.  In a
hooked tile each chunk also records its step signs and its (step, row)
departure events, and after the tile the hook sees the events in step
order; a hook that reads walk state at its event's step gets it rebuilt from
the signs (`at_event`).  Finished rows keep stepping until a quarter of the
block is done; when that happens at step j of a k-step tile, steps j+1..k-1
are taken back, the stream is set to the draws after step j, and the block
is compacted, as a per-step engine would compact it.  Hooked tiles start at
one step and fall back to one after a tile that compacts; after a tile that
does not, they double, but stop at half the steps the rate of finishing
since the last compaction needs to reach the next one, so blocks that
finish fast take few steps back.  The tile length moves no output.
Window and depth are guesses: on overflow the block is re-run from its seed
with doubled capacity, and as p_right(d) does not depend on it, with the
same output.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationBudgetError
from .walk import _as_generator, _step_sign
from .weights import WeightFunction


TILE = 16  # steps per tile
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


class _Stream:
    """Uniforms of a Philox generator read at absolute stream positions.

    Position p is the p-th 64-bit output of the generator; Philox makes them
    four per counter value, so a read at p advances the generator to the
    start of block p // 4 and draws p % 4 more uniforms than it returns.  A
    read that starts where the generator stands draws straight on, and a
    tile over every row is one such read.  After reads that end at p, the
    generator is in the state p draws from the start give it.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.Philox):
            raise TypeError("positioned draws need a Philox generator")
        self.rng = rng
        st = rng.bit_generator.state
        self.ctr = sum(int(v) << (64 * i) for i, v in enumerate(st["state"]["counter"]))
        self.pos = 4 * self.ctr + st["buffer_pos"]  # the generator's position
        self.next = self.pos  # where the next step's draws start
        self.buf = np.empty(0)

    def tile(self, n: int, k: int, c: int, span: int):
        """The uniforms of rows c..c+span-1 (or to n), one array per step of
        a k-step tile over n rows that starts at `next`."""
        count = min(span, n - c)
        if len(self.buf) < TILE * (span + 3):
            self.buf = np.empty(TILE * (span + 3))
        if count == n:  # every row: the tile is one straight run of draws
            return self.read(self.next, k * n, 0).reshape(k, n)
        return [self.read(self.next + j * n + c, count, j * (span + 3)) for j in range(k)]

    def read(self, at: int, count: int, into: int) -> np.ndarray:
        """The `count` uniforms from position `at`, in the buffer from `into`."""
        skip = 0
        if at != self.pos:
            self.rng.bit_generator.advance(at // 4 - 1 - self.ctr)
            skip = at % 4
        u = self.buf[into : into + skip + count]
        self.rng.random(out=u)
        self.pos = at + count
        self.ctr = (self.pos - 1) // 4
        return u[skip:]


class _Lockstep:
    """Flat state of one block of replicas, all started at site 0."""

    def __init__(self, w: WeightFunction, replicas: int, width: int, dmax: int, seed,
                 want_lplus: bool = False, d_init=None):
        self.stream = _Stream(_as_generator(seed))
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
        # hooked runs: the watched (site, sign), each tile's signs and events,
        # and the tile length k and step j of the event being handled
        self.watch = self.S = self.E = None
        self.k = self.j = 0

    def positions(self) -> np.ndarray:
        return self.fi - self.base

    def run(self, steps: int, watch=None, on_event=None) -> None:
        """Advance up to `steps` steps, in tiles of up to TILE steps over
        chunks of CHUNK rows, with the draws read at their place in the
        stream.  With watch=(site, sign) and on_event, after each tile
        on_event(t, rows) runs for each step t of the tile at which rows
        departed `site` in direction `sign`, in step order, and returns the
        rows it is done with or None; it reads state at step t through
        `at_event`.  Once a quarter of the block is done, the tile's later
        steps are taken back and the block is compacted; the run ends early
        once every row is done."""
        n = len(self.fi)
        if on_event is not None:
            self.idx, self.retired = np.arange(n), np.zeros(n, dtype=bool)
            self.watch = watch
            self.S, self.E = np.empty((TILE, n), dtype=self.D.dtype), np.empty((TILE, n), dtype=bool)
        tile = TILE if on_event is None else 1
        # a plain run reads a tile's draws for all rows at once; a hooked run
        # holds more per row, and reads them a chunk at a time
        span = n if on_event is None else CHUNK
        t = t_compact = 0
        while t < steps and n:
            pos = self.positions()
            reach = max(int(pos.max()), -int(pos.min()))
            if reach >= self.off - 1:
                raise _NeedWider
            # a replica moves one site per step, so none meets the edge within the tile
            k = min(tile, steps - t, self.off - 1 - reach)
            at = self.stream.next
            for c0 in range(0, n, span):
                us = self.stream.tile(n, k, c0, span)
                for c in range(c0, min(c0 + span, n), CHUNK):
                    self._steps([u[c - c0 : c - c0 + CHUNK] for u in us], c)
            self.stream.next = at + k * n
            t0, t = t, t + k
            if on_event is None:
                continue
            self.k = k
            for j in np.flatnonzero(self.E[:k, :n].any(axis=1)).tolist():
                self.j = j
                done = on_event(t0 + j + 1, np.flatnonzero(self.E[j, :n]))
                if done is None or not len(done):
                    continue
                self.retired[done] = True
                if self.retired.sum() >= 0.25 * n:
                    self._take_back(j)
                    t, self.stream.next = t0 + j + 1, at + (j + 1) * n
                    self._compact()
                    n, tile, t_compact = len(self.fi), 1, t
                    break
            else:
                # double the tile, but end it by half the steps the rate of
                # finishing since the last compaction needs to reach the next
                done, tile = int(self.retired.sum()), min(2 * tile, TILE)
                if done:
                    tile = min(tile, max(1, int(0.5 * (0.25 * n - done) * (t - t_compact) / done)))

    def _steps(self, us, c: int) -> None:
        """One step per uniform array in us for the rows from c on, advanced
        in place; a hooked run also stores each step's signs and events."""
        D, LP, dmax, ptab, watch = self.D, self.LP, self.dmax, self.ptab, self.watch
        rows = slice(c, c + len(us[0]))
        fi = self.fi[rows]
        if watch is not None:
            at_site, S, E = self.base[rows] + watch[0], self.S[:, rows], self.E[:, rows]
        for j, uj in enumerate(us):
            d = D[fi]
            if d.max() >= dmax - 1 or d.min() <= 1 - dmax:
                raise _NeedDeeper
            right = uj < ptab[d.astype(np.intp)]
            s = 2 * right.astype(D.dtype) - 1  # D's dtype: a wider s slows the scatter
            D[fi] = d + s
            if LP is not None:
                LP[fi] += right
            if watch is not None:
                if len(us) > 1:  # a one-step tile has no later steps to take back
                    S[j] = s
                ev = np.equal(fi, at_site, out=E[j])
                if watch[1] > 0:
                    ev &= right
                else:
                    np.greater(ev, right, out=ev)  # ev and not right
            fi += s

    def _take_back(self, j: int) -> None:
        """Undo steps j+1..k-1 of the last tile on every row."""
        n = len(self.fi)
        for s in self.S[j + 1 : self.k, :n][::-1]:
            self.fi -= s
            self.D[self.fi] -= s
            if self.LP is not None:
                self.LP[self.fi] -= s > 0

    def at_event(self, rows, sites, lplus: bool = False) -> np.ndarray:
        """D (l+ with lplus) of `rows` at `sites` as it stood after the step
        of the event being handled: the tile's later steps are taken back on
        a copy, never on the rows themselves."""
        flat = self.base[rows][:, None] + np.asarray(sites)
        vals = (self.LP if lplus else self.D)[flat].astype(np.int64)
        fi = self.fi[rows]
        for s in self.S[self.j + 1 : self.k, rows][::-1]:
            fi -= s
            vals -= (fi[:, None] == flat) * ((s > 0) if lplus else s)[:, None]
        return vals

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
                    snapshots=(), read=lambda k, pos, lplus, site_lo: pos):
    """Run `steps` lockstep steps; returns positions (and l+ rows if asked).

    Returns (pos, lplus, site_lo): lplus is (replicas, width) or None;
    site_lo is the site of the first l+ column.  With `snapshots`, returns
    (pos, lplus, site_lo, {k: read(k, pos, lplus, site_lo) at time k}), where
    read gets the walk's own l+ rows, not a copy.
    """
    asked = {int(s) for s in snapshots}
    snap_at = {s for s in asked if 1 <= s <= steps}

    def run(width, dmax):
        walk = _Lockstep(w, replicas, width, dmax, seed, want_lplus=want_lplus)
        lplus = None if walk.LP is None else walk.LP.reshape(replicas, width)  # a view the steps update
        snaps, t = {}, 0
        for stop in sorted(snap_at | {steps}):  # so no tile crosses a snapshot time
            walk.run(stop - t)
            t = stop
            if stop in snap_at:
                snaps[stop] = read(stop, walk.positions(), lplus, -walk.off)
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

        def on_event(t, rows):
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
                prof[ids[fin]] = walk.at_event(rows[fin], ys, lplus=True)
            return rows[fin]

        walk.run(t_cap, (edge_site, 1), on_event)
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

        def on_event(t, rows):
            rows = rows[~got[walk.idx[rows]]]
            if not len(rows):
                return None
            ids = walk.idx[rows]
            d_after = walk.at_event(rows, [0])[:, 0]
            out[ids] = -d_after if want == 1 else d_after
            got[ids] = True
            return rows

        walk.run(100_000, (0, want), on_event)
        return out[got], int((~got).sum())

    # nearly every replica departs from 0 within a few dozen sites of it;
    # start narrow and let the overflow retry widen on demand
    reach = 4 * abs(eta_state) + 64
    return _retrying(run, 2 * reach, max(96, reach))
