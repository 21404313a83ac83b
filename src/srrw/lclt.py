"""Exact lattice local-CLT verification by dynamic programming.

Core object: the exact joint law of (Y, S) = (sum_j xi_j, sum_j j*xi_j) for
iid half-integer steps xi_1..xi_N, computed by sequential convolution in a
rotated frame B~ = S - c*Y with c = (N+1)//2 (kills most of the Y-S
correlation, which keeps the grid small).  Everything downstream (bivariate
and conditional Gaussian comparisons, the discrete-Gaussian convolution
bound) evaluates against this law.

Each DP step is a banded matrix product.  On the flat C-order grid, atom
xi = h + 1/2 of step j moves a cell by h*D + const with D = HB + (j - c), so
on a strided view with rows of D cells it is a shift by h whole rows, and a
block of _BAND_ROWS target rows is a banded Toeplitz matrix of the atoms times
a block of source rows.  Zero pad columns keep shifts from wrapping into the
next row's box.  A block multiplies only the columns that hold box cells of
its grid rows: mod D those columns drift by -w_j per grid row, so they form
one circular window of W + (rows - 1)*|w_j| columns, split in two where it
wraps past D (the whole D-row when it is longer).  Every cell a product
writes holds the exact convolution of the source, so outside the box only
images the clip cut off are nonzero (their mass is counted in
truncated_mass): they lie within the clip's overshoot before or after a box
row, or past the last row, and only those spill strips are zeroed, along
with the rows and columns of the law two steps back that the new box leaves
out.  Column chunks keep each gemm at m*n*k <= 2**18, where OpenBLAS stays
on one thread.  BLAS's summation order replaces the atom order: the box is
unchanged and cells agree with an atom-by-atom update to 1e-15 absolute, but
the last bits depend on the BLAS and on the window bounds.

The limiting density of (Y/sqrt(N), S/N^{3/2}) has covariance
sigma^2 * [[1, 1/2], [1/2, 1/3]]; inverting gives the quadratic form
(2/sigma^2)(u^2 + 3v^2 - 3uv), i.e. the cross term is negative.  The +3uv
variant is kept behind a flag purely as a regression guard.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SupportBudgetError
from .eta import EtaKernel, Lattice1DDistribution, stationary_distribution
from .weights import WeightFunction

DEFAULT_SD_CAP = 8.5
_CLIP_SLACK = 48
_BAND_ROWS = 12  # target rows per banded product of the DP
_GEMM_MNK = 1 << 18  # largest m*n*k that OpenBLAS runs on one thread


def stationary_step_law(w: WeightFunction) -> Lattice1DDistribution:
    """The symmetric half-integer step law derived from the stationary
    distribution of the embedded chain (the chain state shifted by +1/2) on
    eta.DEFAULT_WINDOW, with atoms of mass 1e-18 or less dropped."""
    res = stationary_distribution(EtaKernel(w))
    law = res.r_law.truncated(1e-18)
    probs = law.probs / law.probs.sum()
    return Lattice1DDistribution(law.lo, probs, 0.5)


@dataclass
class BivariatePMF:
    """Exact joint law of (Y, S) on its shifted integer lattice.

    Array cell (ia, ib) carries P(Y = a_values[ia], S~ = bt_values[ib]) with
    S = S~ + c * Y.  truncated_mass accounts for everything clipped beyond
    the sd_cap box during the DP.
    """

    N: int
    step_law: Lattice1DDistribution
    c: int
    arr: np.ndarray
    center_a: int
    center_b: int
    par_a: int
    par_b: int
    box: tuple
    truncated_mass: float
    sigma2: float = field(init=False)

    def __post_init__(self):
        self.sigma2 = self.step_law.variance()

    def a_values(self) -> np.ndarray:
        alo, ahi = self.box[0], self.box[1]
        return (np.arange(alo, ahi) - self.center_a) + 0.5 * self.par_a

    def bt_values(self) -> np.ndarray:
        blo, bhi = self.box[2], self.box[3]
        return (np.arange(blo, bhi) - self.center_b) + 0.5 * self.par_b

    def occupied(self) -> np.ndarray:
        alo, ahi, blo, bhi = self.box
        return self.arr[alo:ahi, blo:bhi]

    def total_mass(self) -> float:
        return float(self.occupied().sum())

    def prob(self, a: float, b: float) -> float:
        """P(Y = a, S = b); zero off the lattice or the stored support."""
        fa = a - 0.5 * self.par_a
        ia = int(round(fa))
        bt = b - self.c * a
        fb = bt - 0.5 * self.par_b
        ib = int(round(fb))
        if abs(fa - ia) > 0.1 or abs(fb - ib) > 0.1:
            return 0.0
        ia += self.center_a
        ib += self.center_b
        alo, ahi, blo, bhi = self.box
        if alo <= ia < ahi and blo <= ib < bhi:
            return float(self.arr[ia, ib])
        return 0.0

    def conditional_given_y(self, a: float):
        """(b_values, conditional probs) of S given Y = a."""
        ia = int(round(a - 0.5 * self.par_a)) + self.center_a
        alo, ahi, blo, bhi = self.box
        if not alo <= ia < ahi:
            raise ZeroMassError(f"Y = {a} has zero mass")
        row = self.arr[ia, blo:bhi]
        mass = row.sum()
        if mass <= 0.0:
            raise ZeroMassError(f"Y = {a} has zero mass")
        return self.bt_values() + self.c * a, row / mass

    def moments(self):
        """(E[Y], E[S], Var[Y], Var[S], Cov[Y,S]) from the exact law."""
        a = self.a_values()
        bt = self.bt_values()
        m = self.occupied()
        tot = m.sum()
        pa = m.sum(axis=1)
        pb = m.sum(axis=0)
        ey = float(a @ pa) / tot
        ebt = float(bt @ pb) / tot
        eyy = float(a**2 @ pa) / tot
        ebtbt = float(bt**2 @ pb) / tot
        eybt = float(a @ m @ bt) / tot
        es = ebt + self.c * ey
        var_y = eyy - ey**2
        cov_ybt = eybt - ey * ebt
        var_s = ebtbt - ebt**2 + 2 * self.c * cov_ybt + self.c**2 * var_y
        cov_ys = cov_ybt + self.c * var_y
        return ey, es, var_y, var_s, cov_ys


class ZeroMassError(ValueError):
    """Conditioning on a zero-probability marginal value."""


def _dp_grid(h: np.ndarray, sigma: float, N: int, sd_cap: float):
    """Geometry of the DP for N steps of atoms h: (c, w2, clip_a_final,
    clip_b_final, HA, HB, slack, cells), where each of its two flat buffers
    holds cells = HA * HB + 2 * slack, as allocated."""
    c = (N + 1) // 2
    w2 = np.sqrt(np.cumsum(np.array([(j - c) ** 2 for j in range(1, N + 1)], dtype=np.float64)))
    clip_a_final = int(math.ceil(sd_cap * sigma * math.sqrt(N))) + _CLIP_SLACK
    clip_b_final = int(math.ceil(sd_cap * sigma * w2[-1])) + _CLIP_SLACK
    h_lo, h_hi = int(h[0]), int(h[-1])
    w_abs = max(c - 1, N - c)
    HA = 2 * (clip_a_final + h_hi - h_lo + 4) + 1
    # right-hand pad: no column shift w_j*h + (par_b + w_j - par_b')//2 carries a cell
    # past the end of its row into the box of the next row
    HB = 2 * (clip_b_final + 8) + 1 + w_abs * int(np.abs(2 * h + 1).max()) // 2 + 2
    slack = (max(-h_lo, h_hi) + 2) * (HB + w_abs)  # flat zeros before and after the grid
    return c, w2, clip_a_final, clip_b_final, HA, HB, slack, HA * HB + 2 * slack


def _band_product(src, dst, band, HB: int, D: int, t0: int, s0: int, nA: int, W: int, spill: tuple) -> None:
    """Fill the box of nA rows by W columns starting at flat cell t0 of dst
    with the banded products of src's D-rows, read from flat cell s0, and
    zero the nonzero cells the products wrote outside the box: spill[0]
    cells before each box row and spill[1] after it take the clipped images."""
    h_span = band.shape[1] - _BAND_ROWS
    width = _GEMM_MNK // band.size  # gemm columns that keep m*n*k on one BLAS thread
    wj = D - HB
    n_rows = -(-((nA - 1) * HB + W) // D)
    end = 0  # one past the last cell written
    for r0 in range(0, n_rows, _BAND_ROWS):
        m = min(_BAND_ROWS, n_rows - r0)
        # grid rows i_a..i_b have box cells in these D-rows; mod D their columns drift by
        # -w_j per grid row, so the block needs one circular interval of L columns
        i_a = max((r0 * D - W) // HB + 1, 0)
        i_b = min(((r0 + m) * D - 1) // HB, nA - 1)
        if i_a > i_b:  # the block lies in a gap between box rows
            continue
        L = W + (i_b - i_a) * abs(wj)
        col = ((i_a if wj <= 0 else i_b) * HB) % D
        if L >= D:
            windows = ((0, D),)
        elif col + L > D:
            windows = ((col, D - col), (0, col + L - D))
        else:
            windows = ((col, L),)
        for col, n in windows:
            n_chunks = -(-n // width)
            chunk = -(-n // n_chunks)
            end = max(end, t0 + (r0 + m - 1) * D + col + n_chunks * chunk)
            x = np.ndarray((n_chunks, m + h_span, chunk), np.float64, src, 8 * (s0 + r0 * D + col),
                           (8 * chunk, 8 * D, 8))
            y = np.ndarray((n_chunks, m, chunk), np.float64, dst, 8 * (t0 + r0 * D + col), (8 * chunk, 8 * D, 8))
            np.matmul(band[:m, :m + h_span], x, out=y)
    # every cell written holds the exact convolution of src, so outside the box only the
    # clipped images are nonzero (their mass is in truncated): in the spill strips of
    # the gaps between box rows, and in what was written past the last row
    gap = HB - W
    lead, trail = min(spill[0], gap), min(spill[1], gap)
    np.ndarray((nA - 1, lead), np.float64, dst, 8 * (t0 + HB - lead), (8 * HB, 8))[...] = 0.0
    np.ndarray((nA - 1, trail), np.float64, dst, 8 * (t0 + W), (8 * HB, 8))[...] = 0.0
    dst[t0 + (nA - 1) * HB + W:end] = 0.0


def exact_bivariate_pmf(
    step_law: Lattice1DDistribution,
    N: int,
    sd_cap: float = DEFAULT_SD_CAP,
    cell_budget: int = 60_000_000,
) -> BivariatePMF:
    """Exact joint law of (sum xi_j, sum j xi_j), j = 1..N, by convolution DP.

    Mass clipped outside the sd_cap ellipse box (~1e-15 total) is tracked in
    truncated_mass, never renormalized away.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if step_law.offset != 0.5:
        raise ValueError("step law must live on Z + 1/2")
    h = step_law.lo + np.arange(len(step_law.probs))  # integer parts of xi
    p = step_law.probs.astype(np.float64)
    keep = p > 0
    h, p = h[keep], p[keep]
    sigma = math.sqrt(step_law.variance())
    c, w2, clip_a_final, clip_b_final, HA, HB, slack, cells = _dp_grid(h, sigma, N, sd_cap)
    if cells > cell_budget:
        # the largest N whose grid fits: cells grow with N
        n_fit = bisect.bisect_left(range(1, N), True, key=lambda n: _dp_grid(h, sigma, n, sd_cap)[-1] > cell_budget)
        fits = f"; the largest N that fits is {n_fit}" if n_fit else "; no N fits"
        raise SupportBudgetError(f"DP grid {HA}x{HB} and its slack ({cells} cells) exceed the cell budget of "
                                 f"{cell_budget}{fits}", suggested_n=n_fit or None)
    h_lo, h_hi = int(h[0]), int(h[-1])
    h_span = h_hi - h_lo
    center_a, center_b = HA // 2, clip_b_final + 8
    src, dst = np.zeros(cells), np.zeros(cells)
    cur, nxt = (buf[slack:slack + HA * HB].reshape(HA, HB) for buf in (src, dst))
    # band[i, i + h_hi - h_k] = p_k: target row i of a block takes atom k from source row i - h_k
    rows = np.arange(_BAND_ROWS)[:, None]
    band = np.zeros((_BAND_ROWS, _BAND_ROWS + h_span))
    band[rows, rows + h_hi - h] = p
    cur[center_a, center_b] = 1.0
    alo = ahi = center_a
    blo = bhi = center_b
    ahi += 1
    bhi += 1
    stale = (alo, ahi, blo, bhi)  # the box in nxt that still holds the law of two steps back
    par_a = par_b = 0
    truncated = 0.0

    for j in range(1, N + 1):
        wj = j - c
        par_a_new = 1 - par_a
        par_b_new = (par_b + wj) % 2
        shift_a = h + par_a
        cb = (par_b + wj - par_b_new) // 2
        shift_b = wj * h + cb
        clip_a = min(int(math.ceil(sd_cap * sigma * math.sqrt(j))) + _CLIP_SLACK, clip_a_final + h_span)
        clip_b = min(int(math.ceil(sd_cap * sigma * w2[j - 1])) + _CLIP_SLACK, clip_b_final)
        ta_lo = max(alo + int(shift_a.min()), center_a - clip_a)
        ta_hi = min(ahi + int(shift_a.max()), center_a + clip_a + 1)
        tb_lo = max(blo + int(shift_b.min()), center_b - clip_b)
        tb_hi = min(bhi + int(shift_b.max()), center_b + clip_b + 1)
        for pi, sa, sb in zip(p, shift_a, shift_b):
            sa, sb = int(sa), int(sb)
            # source sub-box whose image lands inside the clipped target
            sa_lo = max(alo, ta_lo - sa)
            sa_hi = min(ahi, ta_hi - sa)
            sb_lo = max(blo, tb_lo - sb)
            sb_hi = min(bhi, tb_hi - sb)
            if sa_lo >= sa_hi or sb_lo >= sb_hi:
                truncated += pi * float(cur[alo:ahi, blo:bhi].sum())
                continue
            # clipped-off mass lives in the thin edge strips of the source box
            if (sa_lo, sa_hi, sb_lo, sb_hi) != (alo, ahi, blo, bhi):
                off = (
                    float(cur[alo:sa_lo, blo:bhi].sum())
                    + float(cur[sa_hi:ahi, blo:bhi].sum())
                    + float(cur[sa_lo:sa_hi, blo:sb_lo].sum())
                    + float(cur[sa_lo:sa_hi, sb_hi:bhi].sum())
                )
                truncated += pi * off
        # atom k moves a flat cell by h_k*D + par_a*HB + cb with D = HB + w_j: on rows of
        # length D it is a shift by h_k rows, and a block of target rows is band @ source rows
        D = HB + wj
        nA, W = ta_hi - ta_lo, tb_hi - tb_lo
        t0 = slack + ta_lo * HB + tb_lo
        s0 = t0 - par_a * HB - cb - h_hi * D
        if min(nA, W) > 0:  # the clip can empty the box
            spill = (tb_lo - blo - int(shift_b.min()), bhi + int(shift_b.max()) - tb_hi)
            _band_product(src, dst, band, HB, D, t0, s0, nA, W, spill)
        # then zero the stale law's rows and columns outside the new box
        nxt[stale[0]:ta_lo] = nxt[ta_hi:stale[1]] = 0.0
        both = nxt[max(stale[0], ta_lo):min(stale[1], ta_hi)]
        both[:, stale[2]:tb_lo] = both[:, tb_hi:stale[3]] = 0.0
        stale = (alo, ahi, blo, bhi)
        src, dst, cur, nxt = dst, src, nxt, cur
        alo, ahi, blo, bhi = ta_lo, ta_hi, tb_lo, tb_hi
        par_a, par_b = par_a_new, par_b_new

    return BivariatePMF(
        N=N,
        step_law=step_law,
        c=c,
        arr=cur,
        center_a=center_a,
        center_b=center_b,
        par_a=par_a,
        par_b=par_b,
        box=(alo, ahi, blo, bhi),
        truncated_mass=truncated,
    )


# -- Gaussian comparison ------------------------------------------------------


def limit_exponent(u, v, sigma2: float, plus_cross_sign: bool = False):
    """q at (u, v) = (a/sqrt(N), b/N^{3/2}) of the limit density exp(-q) of
    the scaled law: (u^2 + 3v^2 - 3uv) * 2/sigma^2.

    plus_cross_sign=True evaluates the +3uv variant (wrong sign, kept only
    for the regression test that it fails to converge).
    """
    sgn = 1.0 if plus_cross_sign else -1.0
    return (u * u + 3.0 * v * v + sgn * 3.0 * u * v) * 2.0 / sigma2


def limit_scale(sigma2: float, N: int) -> float:
    """pi sigma^2 N^2/sqrt(3): the factor that takes P(Y = a, S = b) to the
    limit density exp(-limit_exponent) at N steps."""
    return math.pi * sigma2 / math.sqrt(3.0) * N * N


@dataclass
class GaussianComparison:
    sup_scaled_error: float
    argmax: tuple


_TIE_RTOL = 1e-12


def _near_row_max(a, b_vals: np.ndarray, err: np.ndarray) -> list:
    """(err, a, b) for the points of one row within _TIE_RTOL of its largest error, if that is > 0."""
    top = err.max()
    near = np.flatnonzero(err >= top * (1 - _TIE_RTOL)) if top > 0 else []
    return [(float(err[i]), float(a), float(b_vals[i])) for i in near]


def _sup_and_argmax(near: list):
    """The sup error and the lexicographically largest (a, b) within _TIE_RTOL of it.

    On a symmetric step law the errors at (a, b) and (-a, -b) agree up to
    rounding, so a strict argmax would follow the last bits of the DP.
    """
    sup = max((e for e, _, _ in near), default=0.0)
    return sup, max(((a, b) for e, a, b in near if e >= sup * (1 - _TIE_RTOL)), default=(0.0, 0.0))


def lclt_sup_error(
    pmf: BivariatePMF,
    u_max: float = 3.0,
    v_max: float = 3.0,
    plus_cross_sign: bool = False,
) -> GaussianComparison:
    """sup over lattice points with |u|,|v| <= box of
    |(pi sigma^2/sqrt(3)) N^2 P - exp(-(2/sigma^2)(u^2+3v^2-3uv))|.

    Lattice points outside the stored support count with exact mass 0.
    """
    N = pmf.N
    s2 = pmf.sigma2
    scale = limit_scale(s2, N)
    sqn = math.sqrt(N)
    n32 = N ** 1.5
    a_all = pmf.a_values()
    bt_all = pmf.bt_values()
    alo, ahi, blo, bhi = pmf.box
    near = []
    # b lattice enumerated per admissible a-row (S = S~ + c a shifts per row)
    b_lat_lo = -v_max * n32
    for ia, a in enumerate(a_all):
        u = a / sqn
        if abs(u) > u_max:
            continue
        # all lattice b with |v| <= v_max, aligned to this row's lattice
        row_b0 = bt_all[0] + pmf.c * a
        k0 = math.ceil(b_lat_lo - row_b0)
        b_vals = row_b0 + np.arange(k0, k0 + int(2 * v_max * n32) + 1)
        v = b_vals / n32
        v_ok = np.abs(v) <= v_max
        b_vals, v = b_vals[v_ok], v[v_ok]
        exact = np.zeros(len(b_vals))
        ib = np.round(b_vals - pmf.c * a - 0.5 * pmf.par_b).astype(np.int64) + pmf.center_b
        inside = (ib >= blo) & (ib < bhi)
        exact[inside] = pmf.arr[alo + ia, ib[inside]]
        err = np.abs(scale * exact - np.exp(-limit_exponent(u, v, s2, plus_cross_sign)))
        near += _near_row_max(a, b_vals, err)
    return GaussianComparison(*_sup_and_argmax(near))


def conditional_sup_error(pmf: BivariatePMF):
    """sup over |a| <= 2 sqrt(N), |b| <= 2 N^{3/2} of the scaled conditional error
    |(sqrt(2 pi) sigma/sqrt(12)) N^{3/2} P(S=b|Y=a) - exp(-(6/s2)(a/2sqrt(N) - b/N^{3/2})^2)|."""
    N = pmf.N
    a_max, b_max = 2.0 * math.sqrt(N), 2.0 * N**1.5
    s = math.sqrt(pmf.sigma2)
    scale = math.sqrt(2.0 * math.pi) * s * N**1.5 / math.sqrt(12.0)
    near = []
    for a in pmf.a_values():
        if abs(a) > a_max:
            continue
        try:
            b_vals, probs = pmf.conditional_given_y(float(a))
        except ZeroMassError:
            continue
        ok = np.abs(b_vals) <= b_max
        bv = b_vals[ok]
        ex = probs[ok]
        z = a / (2.0 * math.sqrt(N)) - bv / N**1.5
        pred = np.exp(-(6.0 / pmf.sigma2) * z * z)
        near += _near_row_max(a, bv, np.abs(scale * ex - pred))
    return _sup_and_argmax(near)


# -- discrete Gaussian convolution bound --------------------------------------


def _normal_density(x):
    return np.exp(-0.5 * np.asarray(x, dtype=np.float64) ** 2) / math.sqrt(2.0 * math.pi)


def _normal_upper_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass
class ConvolutionBoundReport:
    hypothesis_ok: bool
    hypothesis_detail: str
    min_margin: float | None
    argmin_z: int | None
    n_z_checked: int
    bound_constant: float
    max_margin: float | None = None
    argmax_z: int | None = None


def convolution_lowerbound_check(
    xi_lo: int,
    xi: np.ndarray,
    zeta_lo: int,
    zeta: np.ndarray,
    M: float,
    eps: float,
    sigma1: float,
    sigma2: float,
) -> ConvolutionBoundReport:
    """Check the approximate-discrete-Gaussian convolution lower bound.

    Hypothesis: xi_k >= (1-eps)/sigma2 f(k/sigma2) on |k| <= M sigma2 and
    zeta_k >= (1-eps)/sigma1 f(k/sigma1) on |k| <= M sigma1 (f the standard
    normal density).  Conclusion, checked for all |z| <= M sigma2 / 9:

      sum_k xi_{z+k} zeta_{-k}
        >= (1-eps)^3 (1 - Phi(M/4)) f(z/sqrt(s1^2+s2^2)) / sqrt(s1^2+s2^2)

    with Phi the normalized Gaussian upper tail (the unnormalized variant
    would make the constant negative at moderate M).  Returns the worst
    margin over z; the hypothesis failing short-circuits the conclusion.
    """
    if not (0 < sigma1 <= sigma2):
        raise ValueError("need 0 < sigma1 <= sigma2")
    if M < 1:
        raise ValueError("need M >= 1")

    def _hyp(lo, seq, sig):
        ks = np.arange(math.ceil(-M * sig), math.floor(M * sig) + 1)
        vals = np.zeros(len(ks))
        idx = ks - lo
        ok = (idx >= 0) & (idx < len(seq))
        vals[ok] = seq[idx[ok]]
        bound = (1.0 - eps) / sig * _normal_density(ks / sig)
        bad = vals < bound
        return (not bad.any()), int(bad.sum()), ks[bad][:3] if bad.any() else []

    ok2, n2, where2 = _hyp(xi_lo, xi, sigma2)
    ok1, n1, where1 = _hyp(zeta_lo, zeta, sigma1)
    const = (1.0 - eps) ** 3 * (1.0 - _normal_upper_tail(M / 4.0))
    if not (ok1 and ok2):
        detail = f"xi violations: {n2} (e.g. {list(where2)}); zeta violations: {n1} (e.g. {list(where1)})"
        return ConvolutionBoundReport(False, detail, None, None, 0, const)

    conv = np.convolve(xi, zeta)
    conv_lo = xi_lo + zeta_lo
    s12 = math.hypot(sigma1, sigma2)
    z_max = int(M * sigma2 / 9.0)
    zs = np.arange(-z_max, z_max + 1)
    idx = zs - conv_lo
    vals = np.zeros(len(zs))
    ok = (idx >= 0) & (idx < len(conv))
    vals[ok] = conv[idx[ok]]
    rhs = const * _normal_density(zs / s12) / s12
    margins = vals - rhs
    i = int(np.argmin(margins))
    j = int(np.argmax(margins))
    return ConvolutionBoundReport(True, "ok", float(margins[i]), int(zs[i]), len(zs), const,
                                  max_margin=float(margins[j]), argmax_z=int(zs[j]))
