import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from srrw import WeightFunction, eta_kernel_row, simulate_walk
from srrw import vectorwalk as vw
from srrw.cli import main
from srrw.enumeration import exact_position_law
from srrw.errors import SimulationBudgetError, SrrwError
from srrw.harness import substream


def lumped_chisquare_p(counts: dict, law: dict, total: int) -> float:
    obs, exp = [], []
    lump_o = lump_e = 0.0
    for x, p in sorted(law.items()):
        e, o = p * total, counts.get(x, 0)
        if e < 5:
            lump_o += o
            lump_e += e
        else:
            obs.append(o)
            exp.append(e)
    lump_o += sum(c for x, c in counts.items() if x not in law)
    if lump_e > 0:
        obs.append(lump_o)
        exp.append(lump_e)
    obs, exp = np.array(obs, float), np.array(exp, float)
    exp *= obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue


def empirical_counts(pos: np.ndarray) -> dict:
    vals, cnts = np.unique(pos, return_counts=True)
    return dict(zip(vals.tolist(), cnts.tolist()))


def test_final_positions_deterministic(w_exp):
    a, _, _ = vw.final_positions(w_exp, 64, 5000, substream(5, 1))
    b, _, _ = vw.final_positions(w_exp, 64, 5000, substream(5, 1))
    assert np.array_equal(a, b)


def test_final_positions_match_enumeration(w_exp):
    R = 150_000
    pos, _, _ = vw.final_positions(w_exp, 10, R, substream(6, 0))
    law = exact_position_law(w_exp, 10)
    p = lumped_chisquare_p(empirical_counts(pos), law, R)
    assert p > 0.001


def test_two_engines_agree(w_exp):
    # the scalar simulator and the batch engine draw from the same law
    R = 30_000
    pos, _, _ = vw.final_positions(w_exp, 8, R, substream(7, 0))
    law = exact_position_law(w_exp, 8)
    p_batch = lumped_chisquare_p(empirical_counts(pos), law, R)
    scalar = np.array([simulate_walk(w_exp, 8, seed=100_000 + i).positions[-1] for i in range(8000)])
    p_scalar = lumped_chisquare_p(empirical_counts(scalar), law, 8000)
    assert p_batch > 0.001 and p_scalar > 0.001


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["exp:1.0", "exp:0.3", "ramp:1.0:1.0"]), seed=st.integers(0, 2**32 - 1),
       steps=st.one_of(st.sampled_from([0, vw.TILE - 1, vw.TILE, vw.TILE + 1]), st.integers(0, 400)))
def test_one_replica_matches_scalar_walk(spec, seed, steps):
    # one lockstep replica reads the scalar walk's uniforms in the same order, so the two agree exactly
    w = WeightFunction.parse(spec)
    pos, lp, site_lo = vw.final_positions(w, steps, 1, seed, want_lplus=True)
    t = simulate_walk(w, steps, seed)
    assert pos[0] == t.positions[-1]
    sites = range(site_lo, site_lo + lp.shape[1])
    assert set(t.localtimes.visited_sites()) <= set(sites)
    assert lp[0].tolist() == [t.localtimes.l_plus(x) for x in sites]


def test_lplus_tracking(w_exp):
    R = 2000
    pos, lp, site_lo = vw.final_positions(w_exp, 50, R, substream(8, 0), want_lplus=True)
    assert lp is not None
    # total departed-right count equals (steps + final position) / 2
    totals = lp.sum(axis=1)
    assert np.array_equal(2 * totals - 50, pos)


def test_edge_hit_times_levels(w_exp):
    times, _, unfin = vw.edge_hit_times(w_exp, 0, [1, 2, 4], 20_000, substream(9, 0), t_cap=100_000)
    assert len(unfin) == 0
    assert (times[:, 0] >= 1).all()
    assert (np.diff(times, axis=1) > 0).all()
    # T+_{0,m} lands at site 1, so times are odd
    assert (times % 2 == 1).all()


def test_edge_hit_t_cap_censoring(w_exp):
    times, _, unfin = vw.edge_hit_times(w_exp, 0, [30], 500, substream(10, 0), t_cap=11)
    # m=30 crossings cannot happen within 11 steps
    assert len(unfin) == 500
    assert (times == -1).all()


def test_kernel_transitions_match_row(w_exp):
    for state, direction in ((0, "+"), (2, "-"), (-4, "+")):
        out, censored = vw.kernel_transition_samples(w_exp, state, direction, 60_000, substream(11, state + 10))
        assert censored == 0
        row = eta_kernel_row(w_exp, state)
        vals, cnts = np.unique(out, return_counts=True)
        emp = dict(zip(vals.tolist(), (cnts / len(out)).tolist()))
        support = set(emp) | {int(v) for v in range(row.lo, row.lo + len(row.probs))}
        tv = 0.5 * sum(abs(emp.get(k, 0.0) - row.prob_at(k)) for k in support)
        assert tv < 0.02, f"state {state} dir {direction}: tv {tv}"


def test_width_retry_gives_same_answer(w_exp):
    # forcing a tiny initial window must not change the sampled values
    def run(width, dmax):
        walk = vw._Lockstep(w_exp, 300, width, dmax, substream(12, 0))
        walk.run(64)
        return walk.positions(), None, -walk.off

    a, _, _ = vw._retrying(run, 8, 96)
    b, _, _ = vw.final_positions(w_exp, 64, 300, substream(12, 0))
    assert np.array_equal(a, b)


def test_retrying_raises_typed_budget_error():
    def always_wider(width, dmax):
        raise vw._NeedWider

    with pytest.raises(SimulationBudgetError, match="after 10 tries"):
        vw._retrying(always_wider, 8, 96)
    assert issubclass(SimulationBudgetError, SrrwError)


def test_retrying_stops_before_depth_leaves_int16():
    seen = []

    def always_deeper(width, dmax):
        seen.append(dmax)
        raise vw._NeedDeeper

    with pytest.raises(SimulationBudgetError, match="int16"):
        vw._retrying(always_deeper, 8, 96, max_doublings=30)
    assert seen == [96 * 2**k for k in range(9)]
    assert max(seen) <= np.iinfo(np.int16).max


def test_out_of_tries_is_cli_usage_error(monkeypatch, tmp_path, capsys):
    # a site window that can never grow: every try overflows it
    monkeypatch.setattr(vw, "default_width", lambda steps: 0)
    rc = main(["campaign", "--kind", "endpoint", "--replicas", "50", "--param", "n_ladder=[4]",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error: simulation kept overflowing" in capsys.readouterr().err


# -- bit-identity against the per-step reference engine -------------------------
#
# _RefBatch and the _ref_* drivers keep the step, retry and retire logic of the
# earlier 2-D engine as the reference: the flat engine must reproduce their
# outputs exactly.


class _RefBatch:
    def __init__(self, w, replicas, width, dmax, seed, want_lplus=False, d_init=None):
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.ptab = w.p_right_table(dmax)
        self.dmax = dmax
        self.off = width // 2
        self.D = np.zeros((replicas, width), dtype=np.int16)
        for site, val in (d_init or {}).items():
            self.D[:, site + self.off] = val
        self.LP = np.zeros((replicas, width), dtype=np.int32) if want_lplus else None
        self.pos = np.zeros(replicas, dtype=np.int64)

    def step(self):
        pos = self.pos
        if len(pos) and int(np.abs(pos).max()) >= self.off - 1:
            raise vw._NeedWider
        rows = np.arange(len(pos))
        cols = pos + self.off
        d = self.D[rows, cols]
        if len(pos) and int(np.abs(d).max()) >= self.dmax - 1:
            raise vw._NeedDeeper
        p = self.ptab[d.astype(np.int64) + self.dmax]
        u = self.rng.random(len(pos))
        s = np.where(u < p, 1, -1).astype(np.int16)
        self.D[rows, cols] = d + s
        if self.LP is not None:
            right = s > 0
            self.LP[rows[right], cols[right]] += 1
        old = pos.copy()
        self.pos = pos + s
        return old, s

    def compact(self, keep):
        self.pos = self.pos[keep]
        self.D = self.D[keep]
        if self.LP is not None:
            self.LP = self.LP[keep]


def _ref_retrying(fn, width, dmax, max_doublings=10):
    for _ in range(max_doublings):
        try:
            return fn(width, dmax)
        except vw._NeedWider:
            width *= 2
        except vw._NeedDeeper:
            dmax *= 2
    raise RuntimeError("reference kept overflowing")


def _ref_final(w, steps, replicas, seed, want_lplus=False, snap_at=()):
    def run(width, dmax):
        b = _RefBatch(w, replicas, width, dmax, seed, want_lplus=want_lplus)
        snaps = {}
        for t in range(1, steps + 1):
            b.step()
            if t in snap_at:
                snaps[t] = b.pos.copy()
        return b.pos.copy(), (None if b.LP is None else b.LP.copy()), -b.off, snaps

    return _ref_retrying(run, vw.default_width(steps), 96)


def _ref_edge(w, edge_site, levels, replicas, seed, t_cap, capture_window=None):
    L = len(levels)
    lev = np.array(levels, dtype=np.int64)

    def run(width, dmax):
        b = _RefBatch(w, replicas, width, dmax, seed, want_lplus=capture_window is not None)
        times = np.full((replicas, L), -1, dtype=np.int64)
        prof = None
        if capture_window is not None:
            y_lo, y_hi = capture_window
            prof = np.zeros((replicas, y_hi - y_lo + 1), dtype=np.int64)
        idx = np.arange(replicas)
        cnt = np.zeros(replicas, dtype=np.int64)
        nxt = np.zeros(replicas, dtype=np.int64)
        retired = np.zeros(replicas, dtype=bool)
        for t in range(1, t_cap + 1):
            old, s = b.step()
            crossed = (old == edge_site) & (s > 0)
            if crossed.any():
                cnt[crossed] += 1
                hit = crossed & (nxt < L)
                hit[hit] = cnt[hit] == lev[np.minimum(nxt[hit], L - 1)]
                if hit.any():
                    times[idx[hit], nxt[hit]] = t
                    nxt[hit] += 1
                    done = hit & (nxt == L)
                    if done.any():
                        if prof is not None:
                            cols = np.arange(y_lo, y_hi + 1) + b.off
                            prof[idx[done]] = b.LP[np.ix_(done.nonzero()[0], cols)]
                        retired |= done
                        if retired.sum() >= 0.25 * len(idx):
                            keep = ~retired
                            b.compact(keep)
                            idx, cnt, nxt = idx[keep], cnt[keep], nxt[keep]
                            retired = np.zeros(len(idx), dtype=bool)
                            if len(idx) == 0:
                                break
        return times, prof, idx[~retired].copy()

    guess = 2 * (8 * levels[-1] + abs(edge_site) + 64)
    return _ref_retrying(run, min(guess, vw.default_width(t_cap)), 96, max_doublings=14)


def _ref_kernel(w, eta_state, direction, replicas, seed, step_cap=100_000):
    want = 1 if direction == "+" else -1
    d0 = -eta_state if want == 1 else eta_state
    d_init = {0: d0}
    if d0 > 0:
        d_init[1] = -d0
    elif d0 < 0:
        d_init[-1] = -d0

    def run(width, dmax):
        b = _RefBatch(w, replicas, width, dmax, seed, d_init=d_init)
        out = np.empty(replicas, dtype=np.int64)
        got = np.zeros(replicas, dtype=bool)
        idx = np.arange(replicas)
        retired = np.zeros(replicas, dtype=bool)
        for _ in range(step_cap):
            old, s = b.step()
            done = (old == 0) & (s == want) & ~retired
            if done.any():
                d_after = b.D[done.nonzero()[0], np.full(int(done.sum()), b.off)]
                out[idx[done]] = -d_after if want == 1 else d_after
                got[idx[done]] = True
                retired |= done
                if retired.sum() >= 0.25 * len(idx):
                    keep = ~retired
                    b.compact(keep)
                    idx = idx[keep]
                    retired = np.zeros(len(idx), dtype=bool)
                    if len(idx) == 0:
                        break
        return out[got], int((~got).sum())

    return _ref_retrying(run, 512, max(96, 4 * abs(eta_state) + 64))


@pytest.fixture(params=["exp", "ramp"])
def weight(request, w_exp, w_ramp):
    return w_exp if request.param == "exp" else w_ramp


@pytest.fixture
def forced_retry(monkeypatch, request):
    """Start every block at a tiny width or depth; records each try's (width, dmax)."""
    tries = []
    real = vw._retrying

    def tiny(fn, width, dmax, max_doublings=10):
        def spy(width, dmax):
            tries.append((width, dmax))
            return fn(width, dmax)

        if request.param == "width":
            width = 4
        elif request.param == "depth":
            dmax = 3
        return real(spy, width, dmax, max_doublings + 8)

    monkeypatch.setattr(vw, "_retrying", tiny)
    return request.param, tries


def _assert_retried(forced_retry):
    kind, tries = forced_retry
    if kind == "width":
        assert len({wd for wd, _ in tries}) > 1
    elif kind == "depth":
        assert len({dm for _, dm in tries}) > 1


@pytest.mark.parametrize("forced_retry", [None, "width", "depth"], indirect=True)
def test_final_positions_bit_identical(weight, forced_retry):
    seed = substream(40, 1)
    snap_at = {1, 7, 60, 150}
    ref_pos, _, _, ref_snaps = _ref_final(weight, 150, 3000, seed, snap_at=snap_at)
    pos, lp, site_lo, snaps = vw.final_positions(weight, 150, 3000, seed, snapshots=sorted(snap_at))
    _assert_retried(forced_retry)
    assert lp is None
    assert np.array_equal(pos, ref_pos) and pos.dtype == ref_pos.dtype
    assert snaps.keys() == ref_snaps.keys()
    assert all(np.array_equal(snaps[k], ref_snaps[k]) for k in snap_at)
    if forced_retry[0] is None:
        ref_pos, ref_lp, ref_lo, _ = _ref_final(weight, 150, 3000, seed, want_lplus=True)
        pos, lp, site_lo = vw.final_positions(weight, 150, 3000, seed, want_lplus=True)
        assert np.array_equal(pos, ref_pos) and site_lo == ref_lo
        assert np.array_equal(lp, ref_lp) and lp.dtype == ref_lp.dtype


@pytest.mark.parametrize("forced_retry", [None, "width", "depth"], indirect=True)
def test_edge_hit_times_bit_identical(weight, forced_retry):
    # three levels: most replicas finish and the block compacts several times
    args = (weight, 0, [1, 2, 3], 3000, substream(41, 0))
    ref = _ref_edge(*args, t_cap=50_000, capture_window=(-3, 4))
    got = vw.edge_hit_times(*args, t_cap=50_000, capture_window=(-3, 4))
    _assert_retried(forced_retry)
    assert len(ref[2]) == 0 and (ref[0] > 0).all()
    for a, b in zip(got, ref):
        assert np.array_equal(a, b) and a.dtype == b.dtype


def test_edge_hit_times_censored_bit_identical(weight):
    # off-centre edge, cap short enough that part of the block is censored
    args = (weight, -1, [2, 4], 2000, substream(42, 0))
    ref = _ref_edge(*args, t_cap=40)
    got = vw.edge_hit_times(*args, t_cap=40)
    assert 0 < len(ref[2]) < 2000 and (ref[0][:, 1] == -1).any()
    for a, b in zip(got[::2], ref[::2]):
        assert np.array_equal(a, b)
    assert got[1] is None


@pytest.mark.parametrize("forced_retry", [None, "width", "depth"], indirect=True)
@pytest.mark.parametrize("state", [0, 3, -3])
def test_kernel_transition_samples_bit_identical(weight, state, forced_retry):
    for direction in ("+", "-"):
        seed = substream(43, state + 10, 0 if direction == "+" else 1)
        ref_vals, ref_cens = _ref_kernel(weight, state, direction, 2000, seed)
        vals, cens = vw.kernel_transition_samples(weight, state, direction, 2000, seed)
        assert np.array_equal(vals, ref_vals) and cens == ref_cens
    _assert_retried(forced_retry)


# -- the tiled engine: chunks, tiles, snapshots and state dtype ------------------


@pytest.mark.parametrize("forced_retry", [None, "width"], indirect=True)
def test_tiled_walk_bit_identical(w_exp, forced_retry):
    # a ragged last chunk, steps off the tile grid, snapshots inside tiles
    replicas, steps = 2 * vw.CHUNK + 37, 2 * vw.TILE + 11
    assert steps % vw.TILE
    snap_at = {1, 5, vw.TILE + 3, 2 * vw.TILE, steps}
    seed = substream(44, 0)
    ref_pos, ref_lp, ref_lo, ref_snaps = _ref_final(w_exp, steps, replicas, seed, want_lplus=True, snap_at=snap_at)
    pos, lp, site_lo, snaps = vw.final_positions(w_exp, steps, replicas, seed, want_lplus=True,
                                                 snapshots=sorted(snap_at) + [0, steps + 1])
    _assert_retried(forced_retry)
    assert np.array_equal(pos, ref_pos)
    assert snaps.keys() == snap_at
    assert all(np.array_equal(snaps[k], ref_snaps[k]) for k in snap_at)
    # every row takes part: the last chunk's 37 rows moved and counted their l+
    assert np.array_equal(2 * lp.sum(axis=1) - steps, pos)
    if forced_retry[0] is None:
        assert site_lo == ref_lo and np.array_equal(lp, ref_lp)


def test_int16_state_matches_int8(w_exp):
    def run(dmax):
        walk = vw._Lockstep(w_exp, 3000, vw.default_width(150), dmax, substream(45, 0), want_lplus=True)
        walk.run(150)
        return walk

    narrow, edge, wide = run(96), run(128), run(129)
    assert (narrow.D.dtype, edge.D.dtype, wide.D.dtype) == (np.int8, np.int8, np.int16)
    for walk in (edge, wide):
        assert np.array_equal(walk.positions(), narrow.positions())
        assert np.array_equal(walk.D, narrow.D) and np.array_equal(walk.LP, narrow.LP)


# -- positioned draws, events and compaction inside a tile -----------------------


def _philox_state(bg):
    st = bg.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(), st["buffer"].tolist(),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.integers(1, 40), st.integers(vw.CHUNK - 3, vw.CHUNK + 5),
                   st.integers(2 * vw.CHUNK + 1, 2 * vw.CHUNK + 40)),
       k=st.integers(1, vw.TILE), pre=st.integers(0, 9), buffer_pos=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_positioned_draws_match_per_step_calls(n, k, pre, buffer_pos, seed):
    # n below CHUNK, about CHUNK and with a ragged last chunk, n % 4 of every
    # value, every starting buffer_pos: a tile read chunk by chunk gives the
    # draws of k per-step random(n) calls, and leaves the generator as they do
    rng = np.random.Generator(np.random.Philox(seed))
    rng.random(pre)
    state = rng.bit_generator.state
    state["buffer_pos"] = buffer_pos
    rng.bit_generator.state = state
    ref = np.random.Generator(np.random.Philox(0))
    ref.bit_generator.state = state
    want = np.array([ref.random(n) for _ in range(k)])
    stream = vw._Stream(rng)
    got = np.empty((k, n))
    for c in range(0, n, vw.CHUNK):
        for j, u in enumerate(stream.tile(n, k, c, vw.CHUNK)):
            got[j, c : c + len(u)] = u
    assert np.array_equal(got, want)
    assert _philox_state(rng.bit_generator) == _philox_state(ref.bit_generator)


@pytest.fixture
def compactions(monkeypatch):
    """(j, k) of every compaction: at step j (from 0) of a k-step tile."""
    seen = []
    real = vw._Lockstep._compact

    def spy(self):
        seen.append((self.j, self.k))
        real(self)

    monkeypatch.setattr(vw._Lockstep, "_compact", spy)
    return seen


def test_bit_identity_inputs_compact_inside_tiles(weight, compactions):
    # the inputs of test_edge_hit_times_bit_identical and
    # test_kernel_transition_samples_bit_identical compact at steps that are
    # not a tile's last, so those tests cover the taking back
    vw.edge_hit_times(weight, 0, [1, 2, 3], 3000, substream(41, 0), t_cap=50_000, capture_window=(-3, 4))
    assert any(j < k - 1 for j, k in compactions)
    compactions.clear()
    for state in (0, 3, -3):
        for direction in ("+", "-"):
            seed = substream(43, state + 10, 0 if direction == "+" else 1)
            vw.kernel_transition_samples(weight, state, direction, 2000, seed)
    assert any(j < k - 1 for j, k in compactions)


def test_compaction_at_tile_end_and_inside_tile(w_exp, compactions):
    # a hook that retires chosen replicas at steps 3 and 9: step 3 is the last
    # of the tile of steps 2-3, and after that compaction tiles restart at one
    # step, so step 9 is the third of the tile of steps 7-10; the walk must
    # match the per-step reference compacted at the same steps
    replicas, steps, width, dmax = 1000, 20, 200, 96
    retire = {3: lambda ids: ids % 2 == 0, 9: lambda ids: ids % 4 == 1}
    seed = substream(46, 0)
    walk = vw._Lockstep(w_exp, replicas, width, dmax, seed, want_lplus=True)
    walk.run(steps, (0, 1), lambda t, rows: np.flatnonzero(retire[t](walk.idx)) if t in retire else None)
    assert compactions == [(1, 2), (2, 4)]
    ref = _RefBatch(w_exp, replicas, width, dmax, seed, want_lplus=True)
    idx = np.arange(replicas)
    for t in range(1, steps + 1):
        ref.step()
        if t in retire:
            keep = ~retire[t](idx)
            ref.compact(keep)
            idx = idx[keep]
    assert np.array_equal(walk.idx, idx)
    assert np.array_equal(walk.positions(), ref.pos)
    assert np.array_equal(walk.D.reshape(len(idx), width), ref.D)
    assert np.array_equal(walk.LP.reshape(len(idx), width), ref.LP)
