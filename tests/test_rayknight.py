import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import vectorwalk as vw
from srrw.enumeration import edge_hit_profile_law
from srrw.errors import SimulationBudgetError
from srrw.harness import substream
from srrw.rayknight import ABSORB_CAP_SLACK, tail_probe_site
from srrw.walk import _as_generator


def test_profile_anchors_at_m(sampler_exp):
    for x, m in ((0, 4), (-3, 2)):
        out = sampler_exp.batch_profile_window(x, m, 10, seed=-x, y_lo=x - 1, y_hi=x + 1)
        assert (out[x] == m).all()


def test_profile_rejects_degenerate(sampler_exp):
    # the site rule holds for m >= 1; every consumer's sweep checks it
    for run in (lambda: sampler_exp.batch_total_time(0, 0, 4, seed=1),
                lambda: sampler_exp.batch_boundary_sums(0, 0, 4, seed=1, boundary=2.0),
                lambda: sampler_exp.batch_profile_window(0, 0, 4, seed=1, y_lo=-3, y_hi=3)):
        with pytest.raises(ValueError, match="need m >= 1"):
            run()


def test_profile_absorbs_right_of_origin(sampler_exp):
    # once the profile hits 0 at a site >= 1 it stays 0
    out = sampler_exp.batch_profile_window(0, 3, 30, seed=0, y_lo=1, y_hi=60)
    zero = np.stack([out[y] for y in range(1, 61)], axis=1) == 0
    assert zero[:, -1].all() and (np.logical_or.accumulate(zero, axis=1) == zero).all()


def test_profile_total_time_parity(sampler_exp):
    # T = 2 sum l+ + |x| - 1 lands at x+1, so T = x+1 (mod 2); a window that holds every
    # nonzero site makes the total-time sweep's draws
    for x, m, seed in ((0, 3, 0), (-1, 2, 1), (-4, 5, 2)):
        T = sampler_exp.batch_total_time(x, m, 200, seed)
        assert ((T - (x + 1)) % 2 == 0).all()
        reach = 4 * m + abs(x) + 200
        prof = sampler_exp.batch_profile_window(x, m, 200, seed, x - reach, reach)
        assert (prof[x - reach] == 0).all() and (prof[reach] == 0).all()
        assert np.array_equal(T, 2 * sum(prof.values()) + abs(x) - 1)


def test_m1_law_at_site1_is_point_mass(sampler_exp, w_exp):
    # the walk cannot touch site 1 before first crossing the edge 0 -> 1
    out = sampler_exp.batch_profile_window(0, 1, 5000, seed=3, y_lo=1, y_hi=1)
    assert (out[1] == 0).all()
    law, mass = edge_hit_profile_law(w_exp, m=1, site=1, max_depth=20, prune=0.0)
    assert set(law) == {0}
    assert mass > 0.95  # the remaining mass is walks still left of 1 at the cut


def test_m2_law_at_site1_matches_enumeration(sampler_exp, w_exp):
    # enumeration truncation leaks mass, so compare per value with that slack
    law, mass = edge_hit_profile_law(w_exp, m=2, site=1, max_depth=22, prune=0.0)
    leak = 1.0 - mass
    out = sampler_exp.batch_profile_window(0, 2, 400_000, seed=5, y_lo=1, y_hi=1)[1]
    R = len(out)
    for v in range(0, 5):
        freq = (out == v).mean()
        se = (freq * (1 - freq) / R) ** 0.5
        assert law.get(v, 0.0) - 4 * se <= freq <= law.get(v, 0.0) + leak + 4 * se


def _walk_and_sampler_profiles(sampler, w, x, m, R, seed, y_lo, y_hi):
    """{y: (walk values, sampler values)} of l+(T+_{x,m}, y) over R replicas each."""
    _, prof, unfin = vw.edge_hit_times(
        w, x, [m], R, substream(seed, 1), t_cap=200_000, capture_window=(y_lo, y_hi)
    )
    assert len(unfin) == 0
    rk = sampler.batch_profile_window(x, m, R, substream(seed, 2), y_lo=y_lo, y_hi=y_hi)
    return {y: (prof[:, iy], rk[y]) for iy, y in enumerate(range(y_lo, y_hi + 1))}


def _tv(a, b):
    hi = int(max(a.max(), b.max())) + 1
    return 0.5 * np.abs(np.bincount(a, minlength=hi) / len(a) - np.bincount(b, minlength=hi) / len(b)).sum()


def test_profile_vs_walk_law(sampler_exp, w_exp):
    # the profile sampler reproduces the law of l+(T+_{0,m}, y) from walks
    for y, (a, b) in _walk_and_sampler_profiles(sampler_exp, w_exp, 0, 2, 120_000, 11, -2, 3).items():
        assert _tv(a, b) < 0.012, f"y={y}"


def test_triangular_mean_profile(sampler_exp):
    # E[l+(T+_{0,m}, y)] tracks theta_{2m}(y) in the bulk
    m = 200
    R = 3000
    out = sampler_exp.batch_profile_window(0, m, R, seed=17, y_lo=-280, y_hi=280)
    for y in (-250, -150, -60, 0, 60, 150, 250):
        got = float(out[y].mean())
        want = 0.5 * 2 * m * (1.0 - abs(y) / (2 * m))
        assert got == pytest.approx(want, rel=0.05), f"y={y}: {got} vs {want}"


def test_left_boundary_uses_index_m(sampler_exp):
    # l+(T+_{0,m}, -1) = m + eta_m: its mean is m + E[eta_m] ~ m - 1/2
    m = 30
    out = sampler_exp.batch_profile_window(0, m, 200_000, seed=23, y_lo=-1, y_hi=-1)[-1]
    se = out.std() / np.sqrt(len(out))
    assert abs(out.mean() - (m - 0.5)) < 4 * se


def test_right_boundary_uses_index_m_minus_1(sampler_exp):
    # l+(T+_{0,m}, 1) = (m-1) + eta_{m-1}: mean ~ m - 3/2
    m = 30
    out = sampler_exp.batch_profile_window(0, m, 200_000, seed=29, y_lo=1, y_hi=1)[1]
    se = out.std() / np.sqrt(len(out))
    assert abs(out.mean() - (m - 1.5)) < 4 * se


def test_profile_vs_walk_law_right_of_origin(sampler_exp, w_exp):
    # at an edge x > 0 the left sweep's sites in [0, x) pass and read l + 1
    x, m = 2, 2
    pairs = _walk_and_sampler_profiles(sampler_exp, w_exp, x, m, 120_000, 12, -3, 6)
    assert (pairs[x][0] == m).all() and (pairs[x][1] == m).all()
    for y in range(0, x):  # the walk to x+1 crossed every edge from the origin up
        assert (pairs[y][0] >= 1).all() and (pairs[y][1] >= 1).all()
    for y, (a, b) in pairs.items():
        assert _tv(a, b) < 0.012, f"y={y}"
        se = np.hypot(a.std(), b.std()) / np.sqrt(len(a))
        assert abs(a.mean() - b.mean()) <= 4 * se, f"y={y}"


def test_batch_total_time_matches_walk(sampler_exp, w_exp):
    m = 4
    R = 100_000
    T_rk = sampler_exp.batch_total_time(0, m, R, seed=31)
    times, _, unfin = vw.edge_hit_times(w_exp, 0, [m], R, substream(31, 5), t_cap=300_000)
    assert len(unfin) == 0
    t_walk = times[:, 0]
    assert ((T_rk - (0 + 1)) % 2 == 0).all()
    mw, sw = t_walk.mean(), t_walk.std(ddof=1) / np.sqrt(R)
    mr, sr = T_rk.mean(), T_rk.std(ddof=1) / np.sqrt(R)
    assert abs(mw - mr) < 3 * np.hypot(sw, sr)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("run", [
    lambda s: s.batch_total_time(0, 3, 4, seed=1),
    lambda s: s.batch_boundary_sums(0, 3, 4, seed=1, boundary=2.0),
], ids=["batch_total_time", "batch_boundary_sums"])
def test_sweep_cap_raises_budget_error(sampler_exp, monkeypatch, side, run):
    # l stays put, so a sweep never absorbs; for the left sweep the first
    # draw (the right sweep's boundary site) absorbs at once
    calls = []

    def advance(idx, rng):
        calls.append(idx)
        return np.zeros_like(idx) if side == "left" and len(calls) == 1 else idx.copy()

    monkeypatch.setattr(sampler_exp, "_advance", advance)
    with pytest.raises(SimulationBudgetError, match=f"{side} sweep failed to absorb within cap"):
        run(sampler_exp)


def test_window_sweep_has_no_cap(sampler_exp, monkeypatch):
    # a sweep with an end site stops there, even past the absorption cap
    monkeypatch.setattr(sampler_exp, "_advance", lambda idx, rng: idx.copy())
    y_hi = 4 * 3 + ABSORB_CAP_SLACK + 100
    out = sampler_exp.batch_profile_window(0, 3, 4, seed=1, y_lo=-2, y_hi=y_hi)
    assert (out[y_hi] == 2).all() and (out[-2] == 3).all()


# -- bit-identity against the five hand-written sweeps ---------------------------
#
# The _ref_* functions keep the per-method sweeps the sampler had before its one
# sweep engine; the engine and its consumers must reproduce their outputs exactly.


def _ref_boundary_index(x, m):
    """The sampler's old right-sweep start index, for x <= 0."""
    return m - 1 if x == 0 else m


def _ref_profile(s, x, m, seed):
    """(site_lo, l+ at sites site_lo.., T) of one profile, drawn site by site."""
    rng = _as_generator(seed)
    right_vals = []
    idx = _ref_boundary_index(x, m)
    l = int(s._advance(np.array([idx]), rng)[0])
    right_vals.append(l)
    y = x + 2
    while True:
        if y <= 0:
            idx = l + 1
        else:
            if l == 0:
                break
            idx = l
        l = int(s._advance(np.array([idx]), rng)[0])
        right_vals.append(l)
        y += 1
    left_vals = []
    l = m
    while l > 0:
        l = int(s._advance(np.array([l]), rng)[0])
        left_vals.append(l)
    site_lo = x - len(left_vals)
    lplus = np.array(left_vals[::-1] + [m] + right_vals, dtype=np.int64)
    return site_lo, lplus, 2 * int(lplus.sum()) + abs(x) - 1


def _ref_window(s, x, m, R, seed, y_lo, y_hi):
    rng = _as_generator(seed)
    out = {}
    if y_lo <= x <= y_hi:
        out[x] = np.full(R, m, dtype=np.int64)
    if y_hi >= x + 1:
        l = s._advance(np.full(R, _ref_boundary_index(x, m), dtype=np.int64), rng)
        if x + 1 >= y_lo:
            out[x + 1] = l.copy()
        for y in range(x + 2, y_hi + 1):
            if y <= 0:
                l = s._advance(l + 1, rng)
            else:
                alive = np.nonzero(l > 0)[0]
                if len(alive):
                    l = l.copy()
                    l[alive] = s._advance(l[alive], rng)
            if y_lo <= y:
                out[y] = l.copy()
    if y_lo <= x - 1:
        l = np.full(R, m, dtype=np.int64)
        for t in range(x - 1, y_lo - 1, -1):
            alive = np.nonzero(l > 0)[0]
            if len(alive):
                l = l.copy()
                l[alive] = s._advance(l[alive], rng)
            out[t] = l.copy()
    return out


def _ref_tails(s, m, R, seed, g_m):
    rng = _as_generator(seed)
    sqrt_mg = math.sqrt(m * g_m)
    x0 = tail_probe_site(m, g_m)
    s_rho = math.ceil(2 * m + math.sqrt(m) * g_m)
    l = s._advance(np.full(R, m - 1, dtype=np.int64), rng)
    runmin = l.copy()
    val_x0 = l.copy() if x0 == 1 else None
    act = np.nonzero(l > 0)[0]
    lact = l[act]
    for y in range(2, s_rho + 1):
        if len(act) == 0 and y > x0:
            break
        if len(act):
            lact = s._advance(lact, rng)
        if y <= x0:
            runmin[act] = np.minimum(runmin[act], lact)
            if y == x0:
                val_x0 = np.zeros(R, dtype=np.int64)
                val_x0[act] = lact
        if len(act):
            keep = lact > 0
            act, lact = act[keep], lact[keep]
    if val_x0 is None:
        val_x0 = np.zeros(R, dtype=np.int64)
    rho_hits = len(act)
    t_lam = -s_rho - 1
    act = np.arange(R)
    lact = np.full(R, m, dtype=np.int64)
    for _ in range(-1, t_lam - 1, -1):
        if len(act) == 0:
            break
        lact = s._advance(lact, rng)
        keep = lact > 0
        act, lact = act[keep], lact[keep]
    return {"rho": rho_hits, "lam": len(act), "l_gt": int((val_x0 >= 3.0 * sqrt_mg).sum()),
            "l_lt": int((runmin <= sqrt_mg).sum()), "replicas": R, "x0": x0, "s_rho": s_rho}


def _ref_total(s, x, m, R, seed):
    rng = _as_generator(seed)
    total = np.full(R, m, dtype=np.int64)
    l = s._advance(np.full(R, _ref_boundary_index(x, m), dtype=np.int64), rng)
    total += l
    y = x + 2
    while y <= 0:
        l = s._advance(l + 1, rng)
        total += l
        y += 1
    act = np.nonzero(l > 0)[0]
    lact = l[act]
    while len(act):
        lact = s._advance(lact, rng)
        total[act] += lact
        keep = lact > 0
        act, lact = act[keep], lact[keep]
    act = np.arange(R)
    lact = np.full(R, m, dtype=np.int64)
    while len(act):
        lact = s._advance(lact, rng)
        total[act] += lact
        keep = lact > 0
        act, lact = act[keep], lact[keep]
    return 2 * total + abs(x) - 1


def _ref_boundary(s, x, m, R, seed, boundary):
    rng = _as_generator(seed)
    w1 = np.zeros(R, dtype=np.int64)
    w2 = np.zeros(R, dtype=np.int64)
    l = s._advance(np.full(R, _ref_boundary_index(x, m), dtype=np.int64), rng)
    y = x + 1
    if y > boundary:
        w1 += l
    while y + 1 <= 0:
        y += 1
        l = s._advance(l + 1, rng)
        if y > boundary:
            w1 += l
    act = np.nonzero(l > 0)[0]
    lact = l[act]
    while len(act):
        y += 1
        lact = s._advance(lact, rng)
        if y > boundary:
            w1[act] += lact
        keep = lact > 0
        act, lact = act[keep], lact[keep]
    act = np.arange(R)
    lact = np.full(R, m, dtype=np.int64)
    t = x
    while len(act):
        t -= 1
        lact = s._advance(lact, rng)
        if t < -boundary:
            w2[act] += lact
        keep = lact > 0
        act, lact = act[keep], lact[keep]
    return w1, w2


def _ref_hit_time_law(w, x, m, t_max):
    """P(T+_{x,m} = t) for t <= t_max, by enumerating the walk's paths.

    Paths are merged on (position, signed differences, crossings so far) and
    dropped once they cannot make the remaining crossings by t_max.
    """
    off = t_max
    law = np.zeros(t_max + 1)
    states = {(0, (0,) * (2 * t_max + 1), 0): 1.0}
    for t in range(1, t_max + 1):
        nxt = defaultdict(float)
        for (pos, d, hits), prob in states.items():
            p = w.p_right(d[pos + off])
            for step, q in ((1, p), (-1, 1.0 - p)):
                h = hits + (step == 1 and pos == x)
                if h == m:
                    law[t] += prob * q
                elif q > 0.0 and abs(pos + step - x) + 1 + 2 * (m - h - 1) <= t_max - t:
                    dd = list(d)
                    dd[pos + off] += step
                    nxt[(pos + step, tuple(dd), h)] += prob * q
        states = nxt
    return law


@pytest.fixture(params=["exp", "ramp"])
def sampler(request, sampler_exp, sampler_ramp):
    return sampler_exp if request.param == "exp" else sampler_ramp


@pytest.mark.parametrize("x", [0, -1, -4])
@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_sample_profile_matches_reference(sampler, x, m):
    # one replica of the window and total-time sweeps makes the one-profile reference's draws
    for seed in range(12):
        site_lo, lplus, T = _ref_profile(sampler, x, m, seed)
        sites = range(site_lo, site_lo + len(lplus))
        got = sampler.batch_profile_window(x, m, 1, seed, sites[0], sites[-1])
        assert [int(got[y][0]) for y in sites] == lplus.tolist()
        assert sampler.batch_total_time(x, m, 1, seed).tolist() == [T]


@pytest.mark.parametrize("x,m,y_lo,y_hi", [
    (0, 1, -5, 5),
    (-1, 3, -12, 12),
    (-4, 7, -40, 45),
    (-1, 3, -8, -1),   # y_hi = x: no right sweep
    (-4, 5, -20, -5),  # y_hi = x - 1
    (-1, 3, -1, 9),    # y_lo = x: no left sweep
    (0, 4, 1, 10),     # y_lo = x + 1
    (-4, 5, 2, 9),     # window right of the sites in (x, 0]
])
def test_profile_window_matches_reference(sampler, x, m, y_lo, y_hi):
    got = sampler.batch_profile_window(x, m, 700, 21, y_lo, y_hi)
    want = _ref_window(sampler, x, m, 700, 21, y_lo, y_hi)
    assert sorted(got) == sorted(want) == list(range(y_lo, y_hi + 1))
    assert all(np.array_equal(got[y], want[y]) for y in want)


@settings(max_examples=80, deadline=None)
@given(x=st.sampled_from([0, -1, -3]), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       y_lo=st.integers(-30, 4), width=st.integers(0, 40))
def test_one_replica_window_matches_single_profile(sampler_exp, x, m, seed, y_lo, width):
    # one replica of the windowed sweep makes the one-profile reference's draws in the same order: its
    # right sites always agree, and its left sites once the right sweep ran as far as the reference's
    y_hi = y_lo + width
    site_lo, lplus, _ = _ref_profile(sampler_exp, x, m, seed)
    single = dict(zip(range(site_lo, site_lo + len(lplus)), lplus.tolist()))
    got = sampler_exp.batch_profile_window(x, m, 1, seed, y_lo, y_hi)
    whole = y_hi >= site_lo + len(lplus) - 1
    assert sorted(got) == list(range(y_lo, y_hi + 1))
    for y in got:
        if y > x or whole:
            assert got[y].tolist() == [single.get(y, 0)], y


def test_profile_window_keeps_to_the_window(sampler_exp):
    # the per-method sweep also returned left sites above y_hi < x - 1
    got = sampler_exp.batch_profile_window(-4, 5, 300, 22, -20, -7)
    want = _ref_window(sampler_exp, -4, 5, 300, 22, -20, -7)
    assert sorted(got) == list(range(-20, -6)) and set(want) - set(got) == {-6, -5}
    assert all(np.array_equal(got[y], want[y]) for y in got)


@pytest.mark.parametrize("m,g_m,R,seeds", [
    (100, 1.0, 3000, (0, 1)),      # every event has mass
    (1000, 47.7, 400, (0, 1)),     # criterion 9's g = log^2 m
    (8, 1.6, 2000, (0, 1, 2)),     # x0 == 1
    (2, 0.001, 8, (0, 10, 23)),    # every replica absorbed before x0 = 3
])
def test_tail_events_matches_reference(sampler, m, g_m, R, seeds):
    for seed in seeds:
        got = sampler.batch_tail_events(m, R, seed, g_m)
        assert got == _ref_tails(sampler, m, R, seed, g_m)
        if m == 8:
            assert got["x0"] == 1
        if m == 2:
            # the same right sweep, read through the window consumer
            prof = sampler.batch_profile_window(0, m, R, seed, 1, got["x0"])
            assert got["x0"] == 3 and (prof[2] == 0).all()


@pytest.mark.parametrize("x", [0, -1, -4])
@pytest.mark.parametrize("m", [1, 3, 12])
def test_total_time_matches_reference(sampler, x, m):
    assert np.array_equal(sampler.batch_total_time(x, m, 3000, 5), _ref_total(sampler, x, m, 3000, 5))


@pytest.mark.parametrize("x", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_total_time_matches_enumeration_right_of_origin(sampler, x, m):
    # every t <= 20 with at least 20 expected hits, within 4 SE of the exact law
    R = 400_000
    law = _ref_hit_time_law(sampler.weight, x, m, 20)
    T = sampler.batch_total_time(x, m, R, seed=40 + 2 * x + m)
    assert ((T - (x + 1)) % 2 == 0).all() and T.min() >= x + 1 + 2 * (m - 1)
    freq = np.bincount(T[T <= 20], minlength=21) / R
    cells = [t for t in range(21) if R * law[t] >= 20]
    assert len(cells) >= 7
    for t in cells:
        se = math.sqrt(law[t] * (1 - law[t]) / R)
        assert abs(freq[t] - law[t]) <= 4 * se, f"t={t}: {freq[t]:.5f} vs {law[t]:.5f}"


@pytest.mark.parametrize("x", [0, -1, -4])
@pytest.mark.parametrize("boundary", [-2.5, 0.0, 1.5, 6.0, 1e9])
def test_boundary_sums_matches_reference(sampler, x, boundary):
    for m in (1, 5):
        got = sampler.batch_boundary_sums(x, m, 2000, 9, boundary)
        want = _ref_boundary(sampler, x, m, 2000, 9, boundary)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
