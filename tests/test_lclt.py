import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import (
    SupportBudgetError,
    ZeroMassError,
    conditional_sup_error,
    convolution_lowerbound_check,
    exact_bivariate_pmf,
    lclt_sup_error,
    stationary_step_law,
)
from srrw.eta import Lattice1DDistribution
from srrw.lclt import _CLIP_SLACK, DEFAULT_SD_CAP, BivariatePMF, limit_exponent, limit_scale


@pytest.fixture(scope="module")
def step_law(w_exp):
    return stationary_step_law(w_exp)


@pytest.fixture(scope="module")
def pmf100(step_law):
    return exact_bivariate_pmf(step_law, 100)


def random_half_law(probs):
    p = np.array(probs)
    p = p / p.sum()
    return Lattice1DDistribution(-(len(p) // 2), p, 0.5)


def test_n1_diagonal(step_law):
    pmf = exact_bivariate_pmf(step_law, 1)
    for v in step_law.values():
        assert pmf.prob(v, v) == pytest.approx(step_law.prob_at(v), rel=1e-14)
        assert pmf.prob(v, v + 1) == 0.0
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(probs=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_n2_product_identity(probs):
    law = random_half_law(probs)
    pmf = exact_bivariate_pmf(law, 2)
    vals = law.values()
    for a in np.arange(vals[0] * 2, vals[-1] * 2 + 0.5, 1.0):
        for b in np.arange(vals[0] * 3, vals[-1] * 3 + 0.5, 1.0):
            want = law.prob_at(2 * a - b) * law.prob_at(b - a)
            assert pmf.prob(a, b) == pytest.approx(want, abs=1e-15)


def dict_convolution_law(law, N):
    """Joint law of (2Y, 2S) by plain convolution over the atoms, keyed by integers."""
    atoms = [(int(round(2 * v)), float(q)) for v, q in zip(law.values(), law.probs) if q > 0]
    joint = {(0, 0): 1.0}
    for j in range(1, N + 1):
        nxt = {}
        for (y2, s2), q in joint.items():
            for x2, px in atoms:
                key = (y2 + x2, s2 + j * x2)
                nxt[key] = nxt.get(key, 0.0) + q * px
        joint = nxt
    return joint


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_dp_matches_dict_convolution(step_law, N):
    skewed = Lattice1DDistribution(-2, np.array([0.1, 0.25, 0.05, 0.4, 0.2]), 0.5)
    for law in (step_law, skewed):
        pmf = exact_bivariate_pmf(law, N)
        joint = dict_convolution_law(law, N)
        vals = law.values()
        lo_y, hi_y = round(2 * N * vals[0]), round(2 * N * vals[-1])
        lo_s, hi_s = round(N * (N + 1) * vals[0]), round(N * (N + 1) * vals[-1])
        # every lattice point of the support's bounding box, zero-mass ones too;
        # the box corners (N * min, N(N+1)/2 * min) lie on the lattice
        visited = 0.0
        for y2 in range(lo_y, hi_y + 1, 2):
            for s2 in range(lo_s, hi_s + 1, 2):
                want = joint.get((y2, s2), 0.0)
                assert abs(pmf.prob(y2 / 2, s2 / 2) - want) <= 1e-15
                visited += want
        # the sweep met all of the mass, and so did the DP
        assert visited == pytest.approx(1.0, abs=1e-14)
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-14)


def test_mass_conserved_n100(pmf100):
    assert pmf100.total_mass() + pmf100.truncated_mass == pytest.approx(1.0, abs=1e-12)
    assert pmf100.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_moments_match_analytic(pmf100, step_law):
    N = 100
    s2 = step_law.variance()
    ey, es, vy, vs, cys = pmf100.moments()
    assert abs(ey) < 1e-9 and abs(es) < 1e-7
    assert vy == pytest.approx(s2 * N, rel=1e-9)
    assert vs == pytest.approx(s2 * N * (N + 1) * (2 * N + 1) / 6, rel=1e-9)
    assert cys == pytest.approx(s2 * N * (N + 1) / 2, rel=1e-9)


def test_support_budget_error(step_law):
    with pytest.raises(SupportBudgetError) as ei:
        exact_bivariate_pmf(step_law, 4000, cell_budget=1_000_000)
    n_fit = ei.value.suggested_n
    assert n_fit is not None and n_fit < 4000
    # the suggestion is the largest N that fits the same budget
    exact_bivariate_pmf(step_law, n_fit, cell_budget=1_000_000)
    with pytest.raises(SupportBudgetError):
        exact_bivariate_pmf(step_law, n_fit + 1, cell_budget=1_000_000)


def test_support_budget_counts_the_padded_grid(step_law, pmf100):
    # the budget covers each flat buffer as allocated: pad columns and slack included
    cells = pmf100.arr.base.size
    assert cells > pmf100.arr.size
    exact_bivariate_pmf(step_law, 100, cell_budget=cells)
    with pytest.raises(SupportBudgetError):
        exact_bivariate_pmf(step_law, 100, cell_budget=cells - 1)


# _ref_exact_bivariate_pmf keeps the earlier row-tile DP as the reference.  It
# adds the atoms into each cell one at a time in the step law's order; the
# banded-product DP sums them in BLAS's order, so cells may differ in their
# last bits, but the box, the clipping and the mass must be the same.


def _ref_exact_bivariate_pmf(step_law, N, sd_cap=DEFAULT_SD_CAP, tile_cells=1 << 16):
    h = step_law.lo + np.arange(len(step_law.probs))
    p = step_law.probs.astype(np.float64)
    keep = p > 0
    h, p = h[keep], p[keep]
    sigma = math.sqrt(step_law.variance())
    c = (N + 1) // 2
    w2 = np.sqrt(np.cumsum(np.array([(j - c) ** 2 for j in range(1, N + 1)], dtype=np.float64)))
    clip_a_final = int(math.ceil(sd_cap * sigma * math.sqrt(N))) + _CLIP_SLACK
    clip_b_final = int(math.ceil(sd_cap * sigma * w2[-1])) + _CLIP_SLACK
    h_span = int(h[-1] - h[0])
    HA = 2 * (clip_a_final + h_span + 4) + 1
    HB = 2 * (clip_b_final + 8) + 1
    center_a, center_b = HA // 2, HB // 2
    cur = np.zeros((HA, HB))
    nxt = np.zeros((HA, HB))
    scratch = np.empty(max(tile_cells, HB))
    cur[center_a, center_b] = 1.0
    alo, ahi, blo, bhi = center_a, center_a + 1, center_b, center_b + 1
    par_a = par_b = 0
    truncated = 0.0
    for j in range(1, N + 1):
        wj = j - c
        par_a_new = 1 - par_a
        par_b_new = (par_b + wj) % 2
        shift_a = h + par_a
        shift_b = wj * h + (par_b + wj - par_b_new) // 2
        clip_a = min(int(math.ceil(sd_cap * sigma * math.sqrt(j))) + _CLIP_SLACK, clip_a_final + h_span)
        clip_b = min(int(math.ceil(sd_cap * sigma * w2[j - 1])) + _CLIP_SLACK, clip_b_final)
        ta_lo = max(alo + int(shift_a.min()), center_a - clip_a)
        ta_hi = min(ahi + int(shift_a.max()), center_a + clip_a + 1)
        tb_lo = max(blo + int(shift_b.min()), center_b - clip_b)
        tb_hi = min(bhi + int(shift_b.max()), center_b + clip_b + 1)
        moves = []
        for pi, sa, sb in zip(p, shift_a, shift_b):
            sa, sb = int(sa), int(sb)
            sa_lo = max(alo, ta_lo - sa)
            sa_hi = min(ahi, ta_hi - sa)
            sb_lo = max(blo, tb_lo - sb)
            sb_hi = min(bhi, tb_hi - sb)
            if sa_lo >= sa_hi or sb_lo >= sb_hi:
                truncated += pi * float(cur[alo:ahi, blo:bhi].sum())
                continue
            moves.append((pi, sa, sb, sa_lo, sa_hi, sb_lo, sb_hi))
            if (sa_lo, sa_hi, sb_lo, sb_hi) != (alo, ahi, blo, bhi):
                off = (
                    float(cur[alo:sa_lo, blo:bhi].sum())
                    + float(cur[sa_hi:ahi, blo:bhi].sum())
                    + float(cur[sa_lo:sa_hi, blo:sb_lo].sum())
                    + float(cur[sa_lo:sa_hi, sb_hi:bhi].sum())
                )
                truncated += pi * off
        tile_rows = max(1, tile_cells // (tb_hi - tb_lo))
        for r0 in range(ta_lo, ta_hi, tile_rows):
            r1 = min(r0 + tile_rows, ta_hi)
            nxt[r0:r1, tb_lo:tb_hi] = 0.0
            for pi, sa, sb, sa_lo, sa_hi, sb_lo, sb_hi in moves:
                lo = max(r0, sa_lo + sa)
                hi = min(r1, sa_hi + sa)
                if lo >= hi:
                    continue
                tgt = nxt[lo:hi, sb_lo + sb:sb_hi + sb]
                tmp = scratch[:tgt.size].reshape(tgt.shape)
                np.multiply(cur[lo - sa:hi - sa, sb_lo:sb_hi], pi, out=tmp)
                np.add(tgt, tmp, out=tgt)
        cur, nxt = nxt, cur
        alo, ahi, blo, bhi = ta_lo, ta_hi, tb_lo, tb_hi
        par_a, par_b = par_a_new, par_b_new
    return BivariatePMF(N=N, step_law=step_law, c=c, arr=cur, center_a=center_a, center_b=center_b,
                        par_a=par_a, par_b=par_b, box=(alo, ahi, blo, bhi), truncated_mass=truncated)


@pytest.fixture(scope="module")
def step_law_ramp(w_ramp):
    return stationary_step_law(w_ramp)


@pytest.mark.parametrize("law_name,N,sd_cap", [
    *itertools.product(["exp", "ramp", "one_sided"], [1, 2, 7, 30, 120], [DEFAULT_SD_CAP, 2.0]),
    # the sd-cap box is centred on zero drift, so falling's mass leaves it within a few dozen steps
    ("falling", 7, DEFAULT_SD_CAP),
    ("falling", 7, 2.0),
])
def test_dp_matches_reference(request, law_name, N, sd_cap):
    if law_name == "one_sided":
        # every step moves Y up, so the box drifts and leaves stale rows behind
        law = Lattice1DDistribution(0, np.array([0.3, 0.7]), 0.5)
    elif law_name == "falling":
        # every step moves Y down, so while w_j < 0 the box's right edge moves left
        # and leaves stale columns right of the new box
        law = Lattice1DDistribution(-3, np.array([0.3, 0.7]), 0.5)
    else:
        law = request.getfixturevalue("step_law" if law_name == "exp" else "step_law_ramp")
    ref = _ref_exact_bivariate_pmf(law, N, sd_cap)
    pmf = exact_bivariate_pmf(law, N, sd_cap)
    assert pmf.box == ref.box
    assert (pmf.center_a, pmf.center_b, pmf.par_a, pmf.par_b) == (ref.center_a, ref.center_b, ref.par_a, ref.par_b)
    # the strip sums read cells that may differ in their last bits
    assert abs(pmf.truncated_mass - ref.truncated_mass) <= 1e-13 * ref.truncated_mass
    got, want = pmf.occupied(), ref.occupied()
    assert np.abs(got - want).max(initial=0.0) <= 1e-15
    big = want > 1e-200
    assert (np.abs(got - want)[big] <= 1e-13 * want[big]).all()
    assert (got[~big] <= 1e-200).all()
    # every cell of the flat buffer outside the box is exactly 0: the windows' spill,
    # the overhang and the stale law were all zeroed
    buf = pmf.arr.base.copy()
    off = (pmf.arr.ctypes.data - pmf.arr.base.ctypes.data) // buf.itemsize
    alo, ahi, blo, bhi = pmf.box
    buf[off:off + pmf.arr.size].reshape(pmf.arr.shape)[alo:ahi, blo:bhi] = 0.0
    assert not buf.any()
    if sd_cap == 2.0 and N >= 30 and law_name != "one_sided":
        # clipping applied on both axes: the box is narrower than the support
        h_span = len(law.probs) - 1
        alo, ahi, blo, bhi = ref.box
        assert ahi - alo < N * h_span + 1
        assert bhi - blo < sum(abs(j - ref.c) for j in range(1, N + 1)) * h_span + 1
        assert ref.truncated_mass > 1e-4


def test_gaussian_predicted_center():
    # the limit density at the centre, sqrt(12)/(2 pi sigma^2 N^2)
    assert limit_exponent(0.0, 0.0, 0.5) == 0.0
    assert 1.0 / limit_scale(0.5, 100) == pytest.approx(math.sqrt(12.0) / (2 * math.pi * 0.5 * 100.0**2), rel=1e-12)


def test_gaussian_predicted_quadratic_decay():
    s2 = 0.5
    assert limit_exponent(1.0, 0.0, s2) == pytest.approx(2.0 / s2, rel=1e-12)
    # the cross term: -3uv, and +3uv behind the regression-guard flag
    assert limit_exponent(1.0, 1.0, s2) == pytest.approx(2.0 / s2, rel=1e-12)
    assert limit_exponent(1.0, 1.0, s2, plus_cross_sign=True) == pytest.approx(14.0 / s2, rel=1e-12)


def test_cross_term_sign_from_covariance():
    # the limit covariance of (Y/sqrt(N), S/N^{3/2}) is s2*[[1,1/2],[1/2,1/3]];
    # its inverse gives the quadratic form (2/s2)(u^2 - 3uv + 3v^2)
    s2 = 0.73
    cov = s2 * np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    H = np.linalg.inv(cov)
    # Hessian of (2/s2)(u^2 - 3uv + 3v^2) equals the inverse covariance
    hessian = (2.0 / s2) * np.array([[2.0, -3.0], [-3.0, 6.0]])
    assert np.allclose(H, hessian, rtol=1e-12)


def test_sup_error_decreases_and_wrong_sign_fails(step_law, pmf100):
    pmf25 = exact_bivariate_pmf(step_law, 25)
    e25 = lclt_sup_error(pmf25).sup_scaled_error
    e100 = lclt_sup_error(pmf100).sup_scaled_error
    assert e100 < e25
    p25 = lclt_sup_error(pmf25, plus_cross_sign=True).sup_scaled_error
    p100 = lclt_sup_error(pmf100, plus_cross_sign=True).sup_scaled_error
    assert p100 > 0.3 and p25 > 0.3
    assert not (p100 < 0.5 * p25)


def test_argmax_ties_pick_the_largest_point(pmf100):
    # averaged with its reflection (a, b) -> (-a, -b), the law is exactly
    # point-symmetric, so every error has a mirror twin up to rounding
    alo, ahi, blo, bhi = pmf100.box
    assert ahi - 1 == 2 * pmf100.center_a - pmf100.par_a - alo
    assert bhi - 1 == 2 * pmf100.center_b - pmf100.par_b - blo
    sym = dataclasses.replace(pmf100, arr=pmf100.arr.copy())
    box = sym.arr[alo:ahi, blo:bhi]
    box[...] = (box + box[::-1, ::-1]) / 2
    _, cond_arg = conditional_sup_error(sym)
    for a, b in (lclt_sup_error(sym).argmax, cond_arg):
        assert (a, b) > (-a, -b)


def test_conditional_normalizes(pmf100):
    for a in (-4.0, 0.0, 6.0):
        b_vals, probs = pmf100.conditional_given_y(a)
        assert probs.sum() == pytest.approx(1.0, rel=1e-12)
        assert (probs >= 0).all()


def test_conditional_zero_mass_error(pmf100):
    with pytest.raises(ZeroMassError):
        pmf100.conditional_given_y(3000.0)


def test_conditional_peak_at_center(pmf100):
    b_vals, probs = pmf100.conditional_given_y(0.0)
    peak_b = b_vals[int(np.argmax(probs))]
    # predicted conditional at a=0 is maximized at b=0
    assert abs(peak_b) <= 60.0
    # P(S = b | Y = 0) at the lattice points nearest b = 0 and b = 600
    exact0, exact_far = (probs[int(round(b - b_vals[0]))] for b in (0.0, 600.0))
    assert exact0 > exact_far > 0


def test_conditional_sup_error_scale(pmf100):
    sup, arg = conditional_sup_error(pmf100)
    assert sup < 0.2


def test_convolution_bound_exact_gaussians():
    sigma = 200.0
    ks = np.arange(-8 * int(sigma), 8 * int(sigma) + 1)
    f = np.exp(-0.5 * (ks / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma)
    rep = convolution_lowerbound_check(int(ks[0]), f, int(ks[0]), f, M=4.0, eps=0.01,
                                       sigma1=sigma, sigma2=sigma)
    assert rep.hypothesis_ok
    assert rep.min_margin >= 0.0
    # largest margin at the center for symmetric inputs
    assert rep.argmax_z == 0


def test_convolution_bound_hypothesis_failure():
    sigma = 50.0
    ks = np.arange(-300, 301)
    f = np.exp(-0.5 * (ks / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma)
    rep = convolution_lowerbound_check(-300, 0.5 * f, -300, f, M=4.0, eps=0.01,
                                       sigma1=sigma, sigma2=sigma)
    assert not rep.hypothesis_ok
    assert rep.min_margin is None


def test_convolution_bound_input_validation():
    with pytest.raises(ValueError):
        convolution_lowerbound_check(0, np.array([1.0]), 0, np.array([1.0]), M=0.5, eps=0.01,
                                     sigma1=10.0, sigma2=10.0)
    with pytest.raises(ValueError):
        convolution_lowerbound_check(0, np.array([1.0]), 0, np.array([1.0]), M=4.0, eps=0.01,
                                     sigma1=20.0, sigma2=10.0)
