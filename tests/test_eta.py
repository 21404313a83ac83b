import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import (
    ConvergenceError,
    DivergingTailError,
    EtaKernel,
    WeightFunction,
    WindowTooSmallError,
    eta_kernel_row,
    sample_eta_chain,
    stationary_distribution,
)
from srrw.eta import TV_FLOOR, _row_from_p, marginal_law_table
from srrw.walk import _as_generator


def test_row_state0_exp(w_exp):
    row = eta_kernel_row(w_exp, 0)
    assert row.prob_at(-1) == 0.5
    assert row.prob_at(0) == pytest.approx(0.4404, abs=5e-5)
    assert row.prob_at(1) == pytest.approx(0.0585, abs=5e-5)


@settings(max_examples=40, deadline=None)
@given(state=st.integers(-8, 8), rate=st.sampled_from([0.5, 1.0, 2.0]))
def test_row_sums_and_support(state, rate):
    w = WeightFunction("exponential", (rate,))
    row = eta_kernel_row(w, state, eps_tail=1e-12)
    assert row.lo == state - 1
    assert row.mass() == pytest.approx(1.0, abs=1e-11)
    assert (row.probs >= 0).all()


def test_row_first_mass_is_step_probability(w_exp, w_ramp):
    for w in (w_exp, w_ramp):
        for state in (-4, 0, 3):
            row = eta_kernel_row(w, state)
            assert row.probs[0] == pytest.approx(w.p_right(-state), rel=1e-14)


def test_diverging_tail_detected():
    with pytest.raises(DivergingTailError):
        _row_from_p(lambda d: 0.0 if d < 0 else 0.5, 0, 1e-12, max_terms=500)


def test_stationary_mean_and_symmetry(stationary_exp):
    res = stationary_exp
    assert res.mean == pytest.approx(-0.5, abs=1e-6)
    assert res.r_law.symmetry_defect() < 1e-8
    assert res.r_law.mean() == pytest.approx(0.0, abs=1e-6)
    assert res.residual < 1e-12
    assert res.sigma2 > 0


def test_stationary_mean_ramp(w_ramp):
    res = stationary_distribution(EtaKernel(w_ramp))
    assert res.mean == pytest.approx(-0.5, abs=1e-6)
    assert res.r_law.symmetry_defect() < 1e-8


def test_stationary_positive_mass_bulk(stationary_exp):
    # positivity holds on the whole window mathematically; float underflow
    # caps how far out it is representable
    nu = stationary_exp.nu
    for eta in range(-20, 21):
        assert nu.prob_at(eta) > 0.0


def test_stationary_tail_decay(stationary_exp):
    nu = stationary_exp.nu
    for eta in range(3, 12):
        assert nu.prob_at(eta + 1) < nu.prob_at(eta)
        assert nu.prob_at(-eta - 2) < nu.prob_at(-eta - 1)


def test_stationary_fixed_point(kernel_exp, stationary_exp):
    lo, hi = stationary_exp.window
    P, _ = kernel_exp.window_matrix(lo, hi)
    v = stationary_exp.nu.probs
    moved = v @ P
    moved = moved / moved.sum()
    assert np.abs(moved - v).sum() < 1e-12


def test_stationary_increment_drift_zero(kernel_exp, stationary_exp):
    # E_nu[eta' - eta] = 0 at stationarity
    lo, hi = stationary_exp.window
    P, _ = kernel_exp.window_matrix(lo, hi)
    states = np.arange(lo, hi + 1, dtype=float)
    drift = float(stationary_exp.nu.probs @ (P @ states - states))
    assert abs(drift) < 1e-9


def test_window_too_small(kernel_exp):
    with pytest.raises(WindowTooSmallError):
        stationary_distribution(kernel_exp, window=(-3, 3), leak_target=1e-12)


def test_chain_starts_at_zero(kernel_exp):
    seq = sample_eta_chain(kernel_exp, 10, seed=1)
    assert seq.values[0] == 0
    again = sample_eta_chain(kernel_exp, 10, seed=1)
    assert np.array_equal(seq.values, again.values)


def test_chain_one_step_frequencies(kernel_exp):
    # sampler vs its own kernel rows: chi-square per visited state at 1e6 steps
    from collections import Counter

    from scipy.stats import chisquare

    seq = sample_eta_chain(kernel_exp, 1_000_000, seed=9)
    vals = seq.values
    counts = {}
    for a, b in zip(vals[:-1], vals[1:]):
        counts.setdefault(int(a), Counter())[int(b)] += 1
    checked = 0
    for state, ctr in counts.items():
        n = sum(ctr.values())
        if n < 2000:
            continue
        row = kernel_exp.row(state)
        obs, exp = [], []
        lump_o = lump_e = 0.0
        for v in range(row.lo, row.lo + len(row.probs)):
            e, o = row.prob_at(v) * n, ctr.get(v, 0)
            if e < 5:
                lump_o += o
                lump_e += e
            else:
                obs.append(o)
                exp.append(e)
        obs.append(lump_o)
        exp.append(lump_e)
        obs, exp = np.array(obs, float), np.array(exp, float)
        exp *= obs.sum() / exp.sum()
        p = chisquare(obs, exp).pvalue
        assert p > 0.001, f"state {state}: p={p}"
        checked += 1
    assert checked >= 4


def test_chain_long_run_mean(kernel_exp):
    seq = sample_eta_chain(kernel_exp, 10_000_000, seed=4)
    vals = seq.values.astype(float)
    mean = vals.mean()
    # integrated autocorrelation inflates the naive se; batch means over 200 chunks
    chunks = vals[: len(vals) // 200 * 200].reshape(200, -1).mean(axis=1)
    se = chunks.std(ddof=1) / np.sqrt(len(chunks))
    assert abs(mean + 0.5) < 3 * se


def test_marginal_table_matches_matrix_powers(kernel_exp, stationary_exp):
    table = marginal_law_table(kernel_exp, stationary_exp)
    lo, hi = stationary_exp.window
    P, _ = kernel_exp.window_matrix(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[-lo] = 1.0
    for j in range(min(6, table.j_star)):
        row = np.diff(np.concatenate(([0.0], table.cdfs[j])))
        assert np.abs(row - v / v.sum()).max() < 1e-12
        v = v @ P


@pytest.mark.parametrize("spec", ["ramp:0.05:1", "exp:0.1", "exp:1", "ramp:1:1"])
def test_mixing_cutoff_against_matrix_powers(spec):
    # ramp:0.05:1 and exp:0.1 mix slowly: TV contracts by less than 2x per step
    # while it is still far above the numeric floor of nu
    kernel = EtaKernel(WeightFunction.parse(spec))
    stationary = stationary_distribution(kernel)
    table = marginal_law_table(kernel, stationary)
    lo, hi = stationary.window
    P, _ = kernel.window_matrix(lo, hi)
    row = np.linalg.matrix_power(P, table.j_star)[-lo]
    row /= row.sum()
    tv = 0.5 * np.abs(row - stationary.nu.probs).sum()
    assert tv < TV_FLOOR
    assert table.tv_at_cutoff == pytest.approx(tv, rel=1e-3, abs=1e-15)
    assert np.abs(np.diff(table.cdfs[-1], prepend=0.0) - row).max() < 1e-12
    if table.tv_at_cutoff > 1e-12:
        with pytest.raises(ConvergenceError):
            marginal_law_table(kernel, stationary, j_cap=table.j_star - 1)


def test_marginal_table_draw_law(kernel_exp, stationary_exp):
    table = marginal_law_table(kernel_exp, stationary_exp)
    rng = np.random.Generator(np.random.Philox(12))
    idx = np.full(100_000, 2, dtype=np.int64)
    draws = table.draw(idx, rng)
    # compare with two exact kernel steps from 0
    lo, hi = stationary_exp.window
    P, _ = kernel_exp.window_matrix(lo, hi)
    v = np.zeros(hi - lo + 1)
    v[-lo] = 1.0
    v = (v @ P) @ P
    v /= v.sum()
    for state in range(-3, 4):
        p = v[state - lo]
        freq = (draws == state).mean()
        se = (p * (1 - p) / len(idx)) ** 0.5
        assert abs(freq - p) < 4 * se + 1e-4


def _ref_draw(table, idx, rng):
    """The earlier draw: one searchsorted over the row-stacked CDFs, row j
    embedded at offset 2j, and the stationary CDF for idx >= j_star."""
    u = rng.random(len(idx))
    out = np.empty(len(idx), dtype=np.int64)
    big = idx >= table.j_star
    if big.any():
        out[big] = table.lo + np.searchsorted(table.nu_cdf, u[big], side="right")
    small = ~big
    if small.any():
        sidx = idx[small]
        width = table.cdfs.shape[1]
        flat = (2.0 * np.arange(len(table.cdfs))[:, None] + table.cdfs).ravel()
        pos = np.searchsorted(flat, 2.0 * sidx + u[small], side="right")
        out[small] = table.lo + (pos - sidx * width)
    return out


class _FixedUniforms:
    """Generator stand-in whose random(n) returns preset uniforms, and whose
    bit generator's random_raw(n) the 64-bit outputs random(n) makes them from."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.bit_generator = self

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()

    def random_raw(self, n):
        assert n == len(self.u)
        return (self.u * 2.0**53).astype(np.uint64) << np.uint64(11)


@pytest.mark.parametrize("sampler", ["sampler_exp", "sampler_ramp"])
def test_draw_matches_reference_stream(sampler, request):
    table = request.getfixturevalue(sampler).table
    js = table.j_star
    idx = np.random.Generator(np.random.Philox(3)).integers(0, js + 20, 200_000)
    idx[:3] = (js - 1, js, js + 1)
    for seed in (5, 6):
        got = table.draw(idx, np.random.Generator(np.random.Philox(seed)))
        want = _ref_draw(table, idx, np.random.Generator(np.random.Philox(seed)))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sampler", ["sampler_exp", "sampler_ramp"])
def test_draw_matches_reference_on_breakpoints(sampler, request):
    # the uniforms x 2^-53 at x = tau - 1 and x = tau for every entry of
    # every row, +inf entries and the stationary row included: the values
    # the generator can produce on either side of each threshold, where the
    # rounded comparison 2j + u decides between neighbours; only where
    # 2j + u rounds to 2j + 1 did the earlier draw leave the window
    table = request.getfixturevalue(sampler).table
    js, width = table.j_star, table.cdfs.shape[1]
    tau = table._tau.reshape(js + 1, width)
    assert (tau[:js, -1] == 2**53).all() and tau[js, -1] == 2**53  # the last entry holds cdf 1
    idx, x = [], []
    for j in [*range(js), js, js + 7]:
        for v in np.concatenate([tau[min(j, js)] - 1, tau[min(j, js)]]):
            if 0 <= v < 2**53:
                idx.append(j)
                x.append(int(v))
    idx, u = np.array(idx, dtype=np.int64), np.array(x, dtype=np.float64) * 2.0**-53
    assert len(idx) > width * js
    off = np.where(idx < js, 2.0 * idx, 0.0)
    rounds_up = off + u == off + 1.0
    got = table.draw(idx, _FixedUniforms(u))
    want = _ref_draw(table, idx, _FixedUniforms(u))
    assert np.array_equal(got[~rounds_up], want[~rounds_up])
    assert rounds_up.any() and (want[rounds_up] == table.lo + width).all()
    last_with_mass = table.lo + np.argmax(table.cdfs >= 1.0, axis=1)
    assert np.array_equal(got[rounds_up], last_with_mass[idx[rounds_up]])


@pytest.mark.parametrize("sampler", ["sampler_exp", "sampler_ramp"])
@pytest.mark.parametrize("j", [8, 20, 40])
def test_draw_stays_in_window_when_rounding_reaches_one(sampler, j, request):
    # 2j + u rounds to 2j + 1 for u this close to 1; the earlier draw then
    # returned lo + width, one state past the window
    table = request.getfixturevalue(sampler).table
    width = table.cdfs.shape[1]
    u = [1.0 - 2.0**-50]
    assert _ref_draw(table, np.array([j]), _FixedUniforms(u))[0] == table.lo + width
    top = table.lo + int(np.argmax(table.cdfs[j] >= 1.0))  # last state with mass
    assert table.draw(np.array([j]), _FixedUniforms(u))[0] == top


def _ref_chain(kernel, length, seed, start):
    """The earlier per-step numpy searchsorted chain sampler."""
    rng = _as_generator(seed)
    values = np.empty(length, dtype=np.int64)
    values[0] = state = start
    uniforms = rng.random(length - 1)
    for j in range(1, length):
        row = kernel.row(state)
        cdf = np.cumsum(row.probs)
        i = min(int(np.searchsorted(cdf, uniforms[j - 1] * cdf[-1], side="right")), len(cdf) - 1)
        state = row.lo + i
        values[j] = state
    return values


@pytest.mark.parametrize("start", [0, 3])
def test_chain_matches_reference(kernel_exp, w_ramp, start):
    for kernel in (kernel_exp, EtaKernel(w_ramp)):
        got = sample_eta_chain(kernel, 70_000, seed=11, start=start).values
        assert np.array_equal(got, _ref_chain(kernel, 70_000, 11, start))
