import numpy as np
import pytest

from srrw import rk_profile_sampler
from srrw import vectorwalk as vw
from srrw.enumeration import edge_hit_profile_law
from srrw.errors import SimulationBudgetError
from srrw.harness import substream


def test_profile_anchors_at_m(sampler_exp, w_exp):
    for seed in range(10):
        prof = rk_profile_sampler(w_exp, 0, 4, seed=seed, sampler=sampler_exp)
        assert prof.l_plus(0) == 4
        prof2 = rk_profile_sampler(w_exp, -3, 2, seed=seed, sampler=sampler_exp)
        assert prof2.l_plus(-3) == 2


def test_profile_rejects_degenerate(sampler_exp, w_exp):
    with pytest.raises(ValueError):
        rk_profile_sampler(w_exp, 0, 0, seed=1, sampler=sampler_exp)
    with pytest.raises(ValueError):
        rk_profile_sampler(w_exp, 2, 1, seed=1, sampler=sampler_exp)


def test_profile_absorbs_right_of_origin(sampler_exp, w_exp):
    # once the profile hits 0 at a site >= 1 it stays 0
    for seed in range(30):
        prof = rk_profile_sampler(w_exp, 0, 3, seed=seed, sampler=sampler_exp)
        sites = prof.sites()
        vals = prof.lplus
        right = vals[sites >= 1]
        if (right == 0).any():
            first = int(np.argmax(right == 0))
            assert (right[first:] == 0).all()


def test_profile_total_time_parity(sampler_exp, w_exp):
    # T = 2 sum l+ + |x| - 1 lands at x+1, so T = x+1 (mod 2)
    for x, m, seed in ((0, 3, 0), (-1, 2, 1), (-4, 5, 2)):
        prof = rk_profile_sampler(w_exp, x, m, seed=seed, sampler=sampler_exp)
        assert prof.T == 2 * int(prof.lplus.sum()) + abs(x) - 1
        assert (prof.T - (x + 1)) % 2 == 0


def test_profile_lminus_balance(sampler_exp, w_exp):
    # edge-crossing balance: interior |l+(y) - l-(y+1)|
    prof = rk_profile_sampler(w_exp, -2, 3, seed=7, sampler=sampler_exp)
    for y in range(prof.site_lo, prof.site_lo + len(prof.lplus) - 1):
        lm = prof.l_minus(y + 1)
        lp = prof.l_plus(y)
        assert abs(lp - lm) <= 1


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


def test_profile_vs_walk_law(sampler_exp, w_exp):
    # the profile sampler reproduces the law of l+(T+_{0,m}, y) from walks
    R = 120_000
    m = 2
    times, prof, unfin = vw.edge_hit_times(
        w_exp, 0, [m], R, substream(11, 1), t_cap=200_000, capture_window=(-2, 3)
    )
    assert len(unfin) == 0
    rk = sampler_exp.batch_profile_window(0, m, R, substream(11, 2), y_lo=-2, y_hi=3)
    for iy, y in enumerate(range(-2, 4)):
        a, b = prof[:, iy], rk[y]
        hi = int(max(a.max(), b.max())) + 1
        tv = 0.5 * np.abs(np.bincount(a, minlength=hi) / R - np.bincount(b, minlength=hi) / R).sum()
        assert tv < 0.012, f"y={y} tv={tv}"


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
    lambda s: s.sample_profile(0, 3, seed=1),
    lambda s: s.batch_total_time(0, 3, 4, seed=1),
    lambda s: s.batch_boundary_sums(0, 3, 4, seed=1, boundary=2.0),
], ids=["sample_profile", "batch_total_time", "batch_boundary_sums"])
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
