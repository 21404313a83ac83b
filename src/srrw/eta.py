"""The embedded site chain: exact transition kernel and stationary law.

Between consecutive departures in one direction, a site makes L >= 0
departures the other way.  With p(d) = w(-d)/(w(d)+w(-d)) the walk rule
gives, from chain state h,

    P(h -> h + L - 1) = p(-h-L) * prod_{i=0}^{L-1} (1 - p(-h-i)),  L >= 0,

the same product for both departure directions (since 1 - p(d) = p(-d)).
The stationary law has mean -1/2 for every admissible weight; shifting by
+1/2 gives a symmetric lattice law on Z + 1/2 whose variance sigma^2 feeds
all scaling formulas.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DivergingTailError, WindowTooSmallError
from .walk import EtaSequence, _as_generator
from .weights import WeightFunction

DEFAULT_EPS_TAIL = 1e-14
DEFAULT_WINDOW = (-40, 40)  # the window the sampler and the step law solve on
STATIONARY_RESIDUAL = 1e-12  # L1 residual that ends the power iteration
STATIONARY_MAX_ITERS = 200_000
TV_CUTOFF = 1e-15  # the marginal table ends once a row is this close to nu
GUIDE_K = 1024  # guide cells per CDF row; a power of two keeps k/K exact
TV_FLOOR = 1e-10  # the mixing cutoff may stop on a stalled TV only below this


@dataclass
class Lattice1DDistribution:
    """Probability masses on {lo + i + offset : i = 0..len-1}, offset 0 or 1/2."""

    lo: int
    probs: np.ndarray
    offset: float = 0.0

    def values(self) -> np.ndarray:
        return self.lo + np.arange(len(self.probs)) + self.offset

    def mass(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        return float(np.dot(self.values(), self.probs) / self.probs.sum())

    def variance(self) -> float:
        v = self.values()
        m = self.mean()
        return float(np.dot((v - m) ** 2, self.probs) / self.probs.sum())

    def prob_at(self, value) -> float:
        i = int(round(value - self.offset)) - self.lo
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0

    def symmetry_defect(self) -> float:
        """max |P(v) - P(-v)| over the support (for laws meant to be symmetric)."""
        vals = self.values()
        return max(abs(self.prob_at(v) - self.prob_at(-v)) for v in vals)

    def truncated(self, threshold: float) -> "Lattice1DDistribution":
        keep = np.nonzero(self.probs > threshold)[0]
        if len(keep) == 0:
            raise ValueError("truncation removed all mass")
        i0, i1 = keep[0], keep[-1] + 1
        return Lattice1DDistribution(self.lo + int(i0), self.probs[i0:i1].copy(), self.offset)


def _row_from_p(p, state: int, eps_tail: float, max_terms: int = 100_000) -> Lattice1DDistribution:
    """Kernel row from an arbitrary step-probability function p(d)."""
    masses = []
    surv = 1.0
    for L in range(max_terms):
        pr = p(-state - L)
        masses.append(surv * pr)
        surv *= 1.0 - pr
        if surv < eps_tail:
            return Lattice1DDistribution(state - 1, np.array(masses))
    raise DivergingTailError(
        f"row at state {state} did not contract below {eps_tail} in {max_terms} terms"
    )


def eta_kernel_row(w: WeightFunction, state: int, eps_tail: float = DEFAULT_EPS_TAIL) -> Lattice1DDistribution:
    """Transition row of the embedded chain from `state`.

    Support is {state-1, state, ...}; the row sums to 1 within eps_tail (the
    surviving tail is dropped, not renormalized).
    """
    if not 0.0 < eps_tail < 1.0:
        raise ValueError("eps_tail must be in (0, 1)")
    return _row_from_p(w.p_right, state, eps_tail)


@dataclass
class EtaKernel:
    """Row cache plus window-truncated matrix builder for one weight."""

    weight: WeightFunction
    _rows: dict = field(default_factory=dict, repr=False)

    def row(self, state: int) -> Lattice1DDistribution:
        r = self._rows.get(state)
        if r is None:
            r = eta_kernel_row(self.weight, state)
            self._rows[state] = r
        return r

    def window_matrix(self, lo: int, hi: int):
        """(P, leak): P[i, j] = P(lo+i -> lo+j) clipped to [lo, hi];
        leak[i] = row mass falling outside the window."""
        n = hi - lo + 1
        P = np.zeros((n, n))
        leak = np.zeros(n)
        for i, state in enumerate(range(lo, hi + 1)):
            row = self.row(state)
            for j, v in enumerate(range(row.lo, row.lo + len(row.probs))):
                if lo <= v <= hi:
                    P[i, v - lo] += row.probs[j]
                else:
                    leak[i] += row.probs[j]
            leak[i] += 1.0 - row.mass()  # dropped tail counts as leakage
        return P, leak


@dataclass
class StationaryResult:
    nu: Lattice1DDistribution
    r_law: Lattice1DDistribution
    mean: float
    sigma2: float
    window: tuple
    residual: float
    boundary_mass: float
    iterations: int


def stationary_distribution(kernel: EtaKernel, window: tuple = DEFAULT_WINDOW,
                            leak_target: float = 1e-9) -> StationaryResult:
    """Numeric stationary law of the embedded chain on a truncated window.

    Power iteration to L1 residual < STATIONARY_RESIDUAL; fails if the window
    lets more than `leak_target` stationary mass leak through its boundary.
    """
    lo, hi = window
    P, leak = kernel.window_matrix(lo, hi)
    n = hi - lo + 1
    # start from a peaked guess at the known bulk around -1/2
    v = np.exp(-0.5 * (np.arange(lo, hi + 1) + 0.5) ** 2)
    v /= v.sum()
    res = np.inf
    for it in range(1, STATIONARY_MAX_ITERS + 1):
        nxt = v @ P
        nxt = nxt / nxt.sum()
        res = float(np.abs(nxt - v).sum())
        v = nxt
        if res < STATIONARY_RESIDUAL:
            break
    else:
        raise ConvergenceError(f"power iteration residual {res} after {STATIONARY_MAX_ITERS} iters")
    boundary = float(np.dot(v, leak))
    if boundary > leak_target:
        raise WindowTooSmallError(
            f"boundary leakage {boundary:.3e} exceeds target {leak_target:.1e} on window {window}"
        )
    nu = Lattice1DDistribution(lo, v.copy(), 0.0)
    r_law = Lattice1DDistribution(lo, v.copy(), 0.5)
    return StationaryResult(
        nu=nu,
        r_law=r_law,
        mean=nu.mean(),
        sigma2=r_law.variance(),
        window=(lo, hi),
        residual=res,
        boundary_mass=boundary,
        iterations=it,
    )


def sample_eta_chain(kernel: EtaKernel, length: int, seed, start: int = 0) -> EtaSequence:
    """Sample the embedded chain from state `start` by inverse-CDF steps."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = _as_generator(seed)
    uniforms = rng.random(length - 1)
    values = np.empty(length, dtype=np.int64)
    values[0] = state = start
    cdf_cache: dict = {}
    # Python floats and bisect beat numpy per step; convert a chunk at a time
    # so the list copy of the uniforms stays small
    chunk_len = 1 << 16
    for c0 in range(0, length - 1, chunk_len):
        chunk = []
        for u in uniforms[c0 : c0 + chunk_len].tolist():
            entry = cdf_cache.get(state)
            if entry is None:
                row = kernel.row(state)
                entry = cdf_cache[state] = (row.lo, np.cumsum(row.probs).tolist())
            lo_row, cdf = entry
            state = lo_row + min(bisect_right(cdf, u * cdf[-1]), len(cdf) - 1)
            chunk.append(state)
        values[1 + c0 : 1 + c0 + len(chunk)] = chunk
    return EtaSequence(site=None, direction="+", values=values, taus=np.arange(length))


@dataclass
class MarginalTable:
    """Laws of the chain state after j steps from 0, up to mixing cutoff.

    Row j (j <= j_star) is the exact j-step marginal on the window; beyond
    j_star every marginal is within tv_at_cutoff (< TV_FLOOR) of the stationary
    law, so the stationary row stands in for all larger indices.

    Draws invert the CDFs with a guide table (Chen & Asau 1974).  The lookup
    rows are rows 0..j_star-1 of the table and then the stationary law as
    row j_star; index idx reads row r = min(idx, j_star).  A draw takes the
    53-bit numerator x of the uniform u = x 2^-53 that `rng.random` would
    return, and keeps the rounded comparison the draws have always used:
    row j < j_star is searched for the first entry whose 2j + cdf lies above
    q = fl(2j + u), the stationary row for the first cdf above u.  As q
    grows with x, "entry e lies at or below q" is "x >= tau_e", for the
    smallest such x, found once per entry by bisection; the scan compares
    integers.  Entries whose CDF has reached 1 never lie below q, so the scan
    stops inside the row even when 2j + u rounds up to 2j + 1; that draw
    returns the row's last state with mass.  guide[r, k] is the first entry
    above 2r + k/K (k/K for the stationary row), which every x with
    x >> 43 == k lies at or beyond: a start the scan only moves forward from.
    """

    lo: int
    cdfs: np.ndarray  # (j_star + 1, window) cumulative rows, each ending at 1
    nu_cdf: np.ndarray
    j_star: int
    tv_at_cutoff: float
    _tau: np.ndarray = field(init=False, repr=False)
    _guide: np.ndarray = field(init=False, repr=False)
    _state: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.vstack([self.cdfs[: self.j_star], self.nu_cdf])
        width = rows.shape[1]
        off = 2.0 * np.arange(len(rows))
        off[-1] = 0.0
        cmp = np.where(rows < 1.0, off[:, None] + rows, np.inf)
        grid = np.arange(GUIDE_K) / GUIDE_K
        self._guide = np.concatenate([
            j * width + np.searchsorted(c, o + grid, side="right")
            for j, (c, o) in enumerate(zip(cmp, off))
        ])
        # tau: the smallest x < 2^53 with fl(off + x 2^-53) >= cmp, else 2^53
        lo, hi = np.zeros(cmp.shape, dtype=np.int64), np.full(cmp.shape, 2**53, dtype=np.int64)
        for _ in range(54):
            mid = (lo + hi) // 2
            above = off[:, None] + mid * 2.0**-53 >= cmp
            hi, lo = np.where(above, mid, hi), np.where(above, lo, mid + 1)
        self._tau = hi.ravel()
        self._state = np.tile(self.lo + np.arange(width), len(rows))

    def draw(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One chain value per entry: entry i is distributed as state after
        idx[i] steps from 0 (stationary beyond the cutoff)."""
        x = rng.bit_generator.random_raw(len(idx))
        x >>= 11  # as uint64: the numerator of rng.random's u
        x = x.view(np.int64)
        g = np.minimum(idx, self.j_star) * GUIDE_K
        g += x >> 43  # the guide cell floor(u K)
        pos = self._guide.take(g)
        act = np.flatnonzero(self._tau.take(pos) <= x)
        while len(act):
            pos[act] += 1
            act = act[self._tau.take(pos[act]) <= x[act]]
        return self._state.take(pos)


def marginal_law_table(kernel: EtaKernel, stationary: StationaryResult, j_cap: int = 5000) -> MarginalTable:
    """Exact j-step marginals from state 0, on the window of `stationary`,
    until they are within TV_CUTOFF of its law in total variation.  A slowly
    contracting TV (less than 2x per step) ends the table early only once it
    is below TV_FLOOR, where it has met the numeric floor of nu itself;
    ConvergenceError if j_cap is reached above TV_FLOOR."""
    lo, hi = stationary.window
    P, _ = kernel.window_matrix(lo, hi)
    nu = stationary.nu.probs
    j_min = max(abs(lo) + 1, 2)  # guarantees index >= j_star implies state + index > 0
    rows = []
    v = np.zeros(hi - lo + 1)
    v[-lo] = 1.0
    rows.append(v.copy())
    tv = 1.0
    prev_tv = np.inf
    for j in range(1, j_cap + 1):
        v = v @ P
        s = v.sum()
        if s > 0:
            v = v / s
        rows.append(v.copy())
        tv = 0.5 * float(np.abs(v - nu).sum())
        if j >= j_min and (tv < TV_CUTOFF or TV_FLOOR > tv > 0.5 * prev_tv):
            break  # converged, or hit the numeric floor of nu itself
        prev_tv = tv
    else:
        if tv >= TV_FLOOR:
            raise ConvergenceError(f"j-step marginals still {tv:.3g} from stationary in TV at j_cap={j_cap}")
    mat = np.vstack(rows)
    cdfs = np.cumsum(mat, axis=1)
    cdfs /= cdfs[:, -1:]
    nu_cdf = np.cumsum(nu)
    nu_cdf /= nu_cdf[-1]
    return MarginalTable(lo=lo, cdfs=cdfs, nu_cdf=nu_cdf, j_star=len(rows) - 1, tv_at_cutoff=tv)
