"""Parallel Monte Carlo campaigns confronting simulation with the limit laws.

Replicas are partitioned into fixed-size blocks; block b of campaign point p
draws from the Philox stream SeedSequence(master_seed, spawn_key=(kind, p, b)).
Ladder campaigns (endpoint, profile-shape) draw from (kind, 0, b) alone: each
block walks once, to the largest step count of the ladder, and every point
is read from that one walk.
Workers only decide which thread runs which block, reductions happen in block
order, and all estimators reduce integer counts, so reports are bit-identical
under any thread budget.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

import numpy as np

from . import vectorwalk as vw
from .errors import CampaignConfigError, SrrwError
from .rayknight import RayKnightSampler, tail_probe_site
from .reporting import CheckResult, StatsReport
from .scaling import beta_n as beta_n_formula
from .scaling import theta
from .weights import WeightFunction

# stream-id constants: first spawn_key entry per campaign kind
KIND_ENDPOINT = 1
KIND_LCLT_TABLE = 2
KIND_PROFILE_SHAPE = 3
KIND_TAILS = 4
KIND_INVERSE_TIME = 5
KIND_WTERMS = 6

DEFAULT_BLOCK = 65536
RIEMANN_N, RIEMANN_K = 10_000, 6.0  # the inverse-time Riemann-sum identity: scale n, sum over |j| <= K sqrt(n)


def substream(master_seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))


def map_blocks(total: int, block_size: int, threads: int, fn):
    """fn(block_index, count) for each block; results returned in block order."""
    blocks = [(b, min(block_size, total - start)) for b, start in enumerate(range(0, total, block_size))]
    if threads <= 1:
        return [fn(b, n) for b, n in blocks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(fn, b, n) for b, n in blocks]
        return [f.result() for f in futs]


def _blocks(cfg, replicas: int, path: tuple, fn):
    """fn(count, seed) for each block of replicas, in block order: block b
    draws from substream(cfg.master_seed, *path, b)."""
    return map_blocks(replicas, cfg.block_size, cfg.threads,
                      lambda b, count: fn(count, substream(cfg.master_seed, *path, b)))


def load_expectations() -> dict:
    """Pilot-calibrated tolerance bands, from the packaged expectations.json."""
    with resources.files("srrw").joinpath("expectations.json").open() as fh:
        return json.load(fh)


def upper95(hits: int, n: int) -> float:
    """Clopper-Pearson 95% upper confidence bound for a binomial frequency."""
    if hits >= n:
        return 1.0
    # scipy.stats takes most of a second to import; only the tail campaigns need it
    from scipy.stats import beta

    return float(beta.ppf(0.95, hits + 1, n - hits))


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)  # JSON true is no count


def _finite(v) -> bool:
    # NaN fails the comparison; math.isfinite would raise on an int past the float range
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def mean_se(n: int, total: int, squares: int):
    """Sample mean and its standard error from the exact sum and sum of squares
    of n integers: the mean and the sample variance correctly rounded, the error
    sqrt(var) / sqrt(n) as numpy's std(ddof=1) gives it; 0.0 for a single value."""
    var = (n * squares - total * total) / (n * (n - 1)) if n > 1 else 0.0
    return total / n, math.sqrt(var) / math.sqrt(n)


def _rate(hits, n: int):
    """Binomial frequency hits/n and its standard error."""
    freq = hits / n
    return freq, math.sqrt(max(freq * (1 - freq), 0.0) / n)


def _monotone(name: str, values: list, strict: bool, detail: str) -> CheckResult:
    """Whether values decrease along the ladder: strictly, or else never increase."""
    pairs = list(zip(values, values[1:]))
    ok = all(b < a for a, b in pairs) if strict else all(b <= a for a, b in pairs)
    return CheckResult(name, ok, detail)


def ks_vs_uniform(values: np.ndarray, counts: np.ndarray, scale: float) -> float:
    """Two-sided KS distance of the empirical law of values/scale vs U(-1,1)."""
    order = np.argsort(values)
    v = values[order] / scale
    c = counts[order]
    n = c.sum()
    cum = np.cumsum(c) / n
    F = np.clip((v + 1.0) / 2.0, 0.0, 1.0)
    below = np.abs(cum - F)
    above = np.abs(np.concatenate(([0.0], cum[:-1])) - F)
    return float(max(below.max(), above.max()))


# -- configs -------------------------------------------------------------------

# the least value of each bounded field, or of each entry of a list field;
# 0 cross-check replicas or cross_m skips the walk cross-check
_LEAST = {"master_seed": 0, "threads": 1, "block_size": 1, "replicas": 1, "cross_replicas": 0, "cross_m": 0,
          "n": 1, "n_ladder": 1, "k_ladder": 1, "m_ladder": 1, "replicas_per_m": 1}


@dataclass(frozen=True)
class CampaignConfig:
    weight: dict = field(default_factory=lambda: {"family": "exponential", "rate": 1.0})
    master_seed: int = 0
    threads: int = 1
    block_size: int = DEFAULT_BLOCK

    kind = "campaign"  # each campaign kind names its own
    ladder = None  # the tuple field a campaign steps along; an empty one gives no evidence

    def __post_init__(self):
        for f in fields(self):  # JSON gives any value; a wrong one would fail mid-run
            v = getattr(self, f.name)
            if f.type.startswith("tuple") and not isinstance(v, tuple):
                raise CampaignConfigError(f"{self.kind}: {f.name}={v!r} must be a list")
            if f.type == "int" and not _integer(v):
                raise CampaignConfigError(f"{self.kind}: {f.name}={v!r} must be an integer")
            if f.type == "float" and not _finite(v):
                raise CampaignConfigError(f"{self.kind}: {f.name}={v!r} must be a finite number")
            if f.type == "tuple[int, ...]" and not all(map(_integer, v)):
                raise CampaignConfigError(f"{self.kind}: {f.name} entries must be integers")
            if f.type == "tuple[float, ...]" and not all(map(_finite, v)):
                raise CampaignConfigError(f"{self.kind}: {f.name} entries must be finite numbers")
            least = _LEAST.get(f.name, -math.inf)
            if f.type == "int" and v < least:
                raise CampaignConfigError(f"{self.kind}: {f.name}={v} must be >= {least}")
            if f.type == "tuple[int, ...]" and any(e < least for e in v):
                raise CampaignConfigError(f"{self.kind}: {f.name} entries must be >= {least}")
        try:
            self.weight_fn()
        except (SrrwError, LookupError, TypeError, ValueError) as exc:
            raise CampaignConfigError(f"{self.kind}: weight={self.weight!r} is not a weight spec: {exc}") from exc
        if self.ladder and not getattr(self, self.ladder):
            raise CampaignConfigError(f"{self.kind}: {self.ladder} is empty")

    def weight_fn(self) -> WeightFunction:
        return WeightFunction.from_spec(self.weight)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class EndpointConfig(CampaignConfig):
    kind = "endpoint"
    ladder = "n_ladder"
    n_ladder: tuple[int, ...] = (50, 100, 200)
    replicas: int = 100_000


@dataclass(frozen=True)
class LcltTableConfig(CampaignConfig):
    kind = "lclt_table"
    n: int = 60
    replicas: int = 1_000_000
    alpha: float = 0.6
    eps: float = 0.2

    def __post_init__(self):
        super().__post_init__()
        if not self.grid():
            raise CampaignConfigError(f"lclt_table: no site |x| <= n - n^alpha has the parity of n^2 at n={self.n}")

    def grid(self) -> list:
        """Sites |x| <= n - n^alpha with the parity of n^2."""
        x_max = int(self.n - self.n**self.alpha)
        return [x for x in range(-x_max, x_max + 1) if abs(x) % 2 == self.n * self.n % 2]


@dataclass(frozen=True)
class ProfileShapeConfig(CampaignConfig):
    kind = "profile_shape"
    ladder = "k_ladder"
    k_ladder: tuple[int, ...] = (10_000, 40_000, 160_000)
    replicas: int = 200


@dataclass(frozen=True)
class TailConfig(CampaignConfig):
    kind = "tails"
    ladder = "m_ladder"
    m_ladder: tuple[int, ...] = (1_000, 10_000, 100_000)
    replicas_per_m: tuple[int, ...] = (20_000, 20_000, 4_000)
    cross_m: int = 50
    cross_replicas: int = 4_000

    def __post_init__(self):
        super().__post_init__()
        for m in self.m_ladder:
            if tail_probe_site(m, math.log(m) ** 2) < 1:
                raise CampaignConfigError(f"tails: m={m} is too small for the log2 growth function")
        if len(self.replicas_per_m) != len(self.m_ladder):
            raise CampaignConfigError(
                f"tails: replicas_per_m has {len(self.replicas_per_m)} entries for {len(self.m_ladder)} m_ladder points"
            )


@dataclass(frozen=True)
class InverseTimeConfig(CampaignConfig):
    kind = "inverse_time"
    n: int = 24
    x: int = 0
    c_targets: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0)
    replicas: int = 10_000_000
    cross_replicas: int = 1_000_000

    def __post_init__(self):
        super().__post_init__()
        if (self.x - self.n * self.n) % 2 != 0:
            raise CampaignConfigError(f"inverse_time: x={self.x} must share the parity of n^2 = {self.n * self.n}")
        if not self.levels():
            raise CampaignConfigError(f"inverse_time: no c target gives a level m >= 1 at n={self.n}, x={self.x}")

    def levels(self) -> list:
        """The admissible integer levels m >= 1 nearest the c targets, ascending."""
        th = theta(float(self.n), float(self.x))
        return [m for m in sorted({int(round(th + c * math.sqrt(self.n))) for c in self.c_targets}) if m >= 1]


@dataclass(frozen=True)
class WTermsConfig(CampaignConfig):
    kind = "wterms"
    ladder = "n_ladder"
    n_ladder: tuple[int, ...] = (50, 100, 200)
    M: float = 1.0
    replicas: int = 20_000

    def __post_init__(self):
        super().__post_init__()
        if min(self.levels()) < 1:
            raise CampaignConfigError(f"wterms: the levels m = round(n/2) of n_ladder, {self.levels()}, must be >= 1")

    def levels(self) -> list:
        """The level m = round(theta_n(0)) of each ladder entry."""
        return [int(round(theta(float(n), 0.0))) for n in self.n_ladder]


CONFIG_KINDS: dict = {}  # kind -> config class, in the order the runners register
_RUNNERS: dict = {}


def config_from_dict(d: dict) -> CampaignConfig:
    """The config of the kind d names, from d's other keys: each must be a field of it."""
    d = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in CONFIG_KINDS:
        raise CampaignConfigError(f"campaign kind={kind!r} is not one of {', '.join(CONFIG_KINDS)}")
    unknown = sorted(set(d) - {f.name for f in fields(CONFIG_KINDS[kind])})
    if unknown:
        raise CampaignConfigError(f"{kind}: {', '.join(unknown)} is not a field of the {kind} config")
    return CONFIG_KINDS[kind](**d)


def run_campaign(cfg: CampaignConfig) -> StatsReport:
    return _RUNNERS[cfg.kind](cfg)


def _campaign(cls):
    """Register a runner returning (tables, checks, replicas_total) as the
    campaign of config class cls; the registered function returns the StatsReport."""

    def register(fn):
        @functools.wraps(fn)
        def run(cfg: CampaignConfig) -> StatsReport:
            tables, checks, total = fn(cfg)
            return StatsReport(kind=cls.kind, config=cfg.to_dict(), tables=tables, checks=checks, replicas_total=total)

        CONFIG_KINDS[cls.kind] = cls
        _RUNNERS[cls.kind] = run
        return run

    return register


# -- endpoint law (diffusive limit) ---------------------------------------------


def walk_ladder(cfg, steps, kind: int, read, want_lplus: bool = False) -> list:
    """read(s, pos, lplus, site_lo) at each step count s in steps, for each
    block of cfg.replicas walks: one list per s, in block order.  Block b walks
    once, to max(steps), on substream (kind, 0, b), and reads every s on the way."""
    blocks = _blocks(cfg, cfg.replicas, (kind, 0), lambda count, seed: vw.final_positions(
        cfg.weight_fn(), max(steps), count, seed, want_lplus, steps, read)[3])
    return [[snaps[s] for snaps in blocks] for s in steps]


def position_histograms(cfg, steps: list, kind: int) -> list:
    """(values, counts) of X(s) over cfg.replicas walks, values ascending, one
    pair per step count s in steps, read by walk_ladder."""
    ladder = walk_ladder(cfg, steps, kind, lambda s, pos, *_: np.bincount(pos + s, minlength=2 * s + 1))
    totals = [sum(blocks) for blocks in ladder]  # replicas with X(s) = x at x + s, over the blocks
    return [(np.flatnonzero(c) - s, c[c > 0]) for s, c in zip(steps, totals)]


@_campaign(EndpointConfig)
def endpoint_law(cfg: EndpointConfig):
    """Empirical law of X(n^2)/n against U(-1,1) along the n ladder."""
    exp = load_expectations()
    rows, hist_rows, checks = [], [], []
    ks_values = []
    replicas = cfg.replicas
    hists = position_histograms(cfg, [n * n for n in cfg.n_ladder], KIND_ENDPOINT)
    for n, (values, counts) in zip(cfg.n_ladder, hists):
        ks = ks_vs_uniform(values, counts, float(n))
        mean = float((values * counts).sum()) / replicas / n
        var = float((values**2 * counts).sum()) / replicas / n**2 - mean**2
        se_mean = math.sqrt(max(var, 0.0) / replicas)
        rows.append({"n": n, "replicas": replicas, "ks": ks, "mean_scaled": mean, "se_mean": se_mean})
        for v, c in zip(values.tolist(), counts.tolist()):
            hist_rows.append({"n": n, "x": v, "count": c})
        ks_values.append(ks)
        checks.append(CheckResult(f"endpoint_mean_zero_n{n}", abs(mean) <= 3 * se_mean + 1e-12,
                                  f"mean {mean:.5f} se {se_mean:.5f}"))
        band = exp["endpoint_ks_max"].get(str(n))
        if band is not None:
            checks.append(CheckResult(f"endpoint_ks_n{n}", ks < band, f"ks {ks:.4f} < {band}"))
    if len(ks_values) > 1:
        checks.append(_monotone("endpoint_ks_monotone", ks_values, True, f"ks ladder {ks_values}"))
    return {"endpoint": rows, "endpoint_hist": hist_rows}, checks, replicas * len(cfg.n_ladder)


# -- pointwise lower bound table -------------------------------------------------


@_campaign(LcltTableConfig)
def local_clt_table(cfg: LcltTableConfig):
    """n * P(X(n^2) = x) over the admissible parity grid, with flags."""
    n = cfg.n
    replicas = cfg.replicas
    ((values, counts),) = position_histograms(cfg, [n * n], KIND_LCLT_TABLE)
    counter = dict(zip(values.tolist(), counts.tolist()))

    grid = cfg.grid()
    observed_max = max(abs(v) for v in counter) if counter else 0
    rows = []
    low_cells = []
    undersampled = 0
    for x in grid:
        hits = counter.get(x, 0)
        phat, se = _rate(hits, replicas)
        n_phat = n * phat
        if abs(x) > observed_max:
            flag = "beyond_range"
        elif hits < 50:
            flag = "undersampled"
            undersampled += 1
        elif n_phat < 1.0 - cfg.eps:
            flag = "low"
            low_cells.append(x)
        else:
            flag = "ok"
        rows.append({"n": n, "x": x, "hits": hits, "n_phat": n_phat, "se": n * se, "flag": flag})
    mass = sum(counter.get(x, 0) for x in grid) / replicas
    checks = [
        CheckResult("lclt_table_mass", mass <= 1.0 + 1e-12, f"grid mass {mass:.4f}"),
        CheckResult("lclt_table_lower_bound", not low_cells,
                    f"{len(low_cells)} cells below {1 - cfg.eps} (e.g. {low_cells[:5]}); undersampled {undersampled}"),
    ]
    return {"lclt_table": rows}, checks, replicas


# -- profile shape (triangular local-time law) -----------------------------------


@_campaign(ProfileShapeConfig)
def profile_shape(cfg: ProfileShapeConfig):
    """Per-replica sup deviation of l+(k, .)/sqrt(k) from the triangular profile,
    per ladder point, read by walk_ladder; medians must decrease along the ladder."""

    def sup_dev(k, pos, lp, site_lo):
        sq = math.sqrt(k)
        sites = site_lo + np.arange(lp.shape[1])
        target = 0.5 * np.clip(1.0 - np.abs(sites) / sq, 0.0, None)
        return np.abs(lp / sq - target[None, :]).max(axis=1)

    rows, checks = [], []
    medians = []
    ladder = walk_ladder(cfg, cfg.k_ladder, KIND_PROFILE_SHAPE, sup_dev, want_lplus=True)
    for k, blocks in zip(cfg.k_ladder, ladder):
        devs = np.concatenate(blocks)
        med = float(np.median(devs))
        p95 = float(np.quantile(devs, 0.95))
        rows.append({"k": k, "replicas": cfg.replicas, "median_dev": med, "p95_dev": p95})
        medians.append(med)
    if len(medians) > 1:
        checks.append(_monotone("profile_median_monotone", medians, True, f"medians {medians}"))
    return {"profile_shape": rows}, checks, cfg.replicas * len(cfg.k_ladder)


# -- range / profile tail events --------------------------------------------------


@_campaign(TailConfig)
def tail_bounds_suite(cfg: TailConfig):
    """Frequencies of the rho/lam and profile tail events on the m ladder,
    via the profile sampler, plus a walk-vs-sampler cross statistic."""
    exp = load_expectations()
    w = cfg.weight_fn()
    sampler = RayKnightSampler(w)
    rows, checks = [], []
    freqs: dict = {"rho": [], "lam": [], "l_gt": [], "l_lt": []}
    total = 0
    for ip, (m, reps) in enumerate(zip(cfg.m_ladder, cfg.replicas_per_m)):
        g_m = math.log(m) ** 2
        thresholds = {
            "rho": math.ceil(2 * m + math.sqrt(m) * g_m),
            "lam": -math.ceil(2 * m + math.sqrt(m) * g_m),
            "l_gt": 3.0 * math.sqrt(m * g_m),
            "l_lt": math.sqrt(m * g_m),
        }
        agg = dict.fromkeys(freqs, 0)
        for out in _blocks(cfg, reps, (KIND_TAILS, ip),
                           lambda count, seed: sampler.batch_tail_events(m, count, seed, g_m)):
            for ev in agg:
                agg[ev] += out[ev]
        total += reps
        for ev, hits in agg.items():
            freq, se = _rate(hits, reps)
            freqs[ev].append(freq)
            rows.append({"m": m, "event": ev, "threshold": thresholds[ev], "hits": hits,
                         "replicas": reps, "freq": freq, "se": se, "upper95": upper95(hits, reps)})
    top_max = exp["tail_top_freq_max"]
    for ev, fl in freqs.items():
        checks.append(_monotone(f"tail_{ev}_monotone", fl, False, f"freqs {fl}"))
        checks.append(CheckResult(f"tail_{ev}_top", fl[-1] < top_max, f"top freq {fl[-1]} < {top_max}"))

    # cross-validation: mean T+_{0,m} from the walk vs the sampler
    tables = {"tails": rows}
    if cfg.cross_m and cfg.cross_replicas:
        m = cfg.cross_m
        times, _, unfin = vw.edge_hit_times(
            w, 0, [m], cfg.cross_replicas, substream(cfg.master_seed, KIND_TAILS, 900), t_cap=400 * m * m
        )
        t_walk = times[times[:, 0] > 0, 0]
        t_rk = np.concatenate(_blocks(cfg, cfg.cross_replicas, (KIND_TAILS, 901),
                                      functools.partial(sampler.batch_total_time, 0, m)))
        (mw, sw), (mr, sr) = (mean_se(len(t), int(t.sum()), int(t @ t)) for t in (t_walk, t_rk))
        tables["tail_cross"] = [{"m": m, "statistic": "mean_T", "walk_value": mw, "walk_se": sw,
                                 "rk_value": mr, "rk_se": sr}]
        joint = math.hypot(sw, sr)
        checks.append(CheckResult("tail_cross_validation", abs(mw - mr) <= 3 * joint and len(unfin) == 0,
                                  f"walk {mw:.2f}+-{sw:.2f} vs rk {mr:.2f}+-{sr:.2f}"))
    return tables, checks, total


# -- inverse-local-time hitting asymptotics ---------------------------------------


@_campaign(InverseTimeConfig)
def inverse_time_asymptotics(cfg: InverseTimeConfig):
    """Scaled estimate of P(T = n^2) for the inverse local times that land on
    x, across admissible c, against the Gaussian benchmark exp(-4c^2/beta_n).

    The hitting event uses the edge (x-1) -> x: the inverse local time at
    x-1 places the walk at x, matching the parity of n^2 for even x.
    Includes the pure-numerics Riemann-sum identity check.
    """
    exp = load_expectations()
    w = cfg.weight_fn()
    n, x = cfg.n, cfg.x
    sampler = RayKnightSampler(w)
    s2 = sampler.sigma2
    bn = beta_n_formula(n, x, s2)
    th = theta(float(n), float(x))
    ms = cfg.levels()
    rows, checks = [], []

    # Riemann-sum identity (no simulation)
    bn_r = beta_n_formula(RIEMANN_N, 0, s2)
    j_max = int(RIEMANN_K * math.sqrt(RIEMANN_N))
    js = np.arange(-j_max, j_max + 1)
    riemann = float(np.sqrt(4.0 / (bn_r * math.pi * RIEMANN_N)) * np.exp(-4.0 * js**2 / (bn_r * RIEMANN_N)).sum())
    tables = {"inverse_time": rows,
              "riemann": [{"n": RIEMANN_N, "x": 0, "K": RIEMANN_K, "value": riemann, "abs_error": abs(riemann - 1.0)}]}
    checks.append(CheckResult("riemann_identity", abs(riemann - 1.0) < 0.01, f"sum {riemann:.6f}"))

    target_T = n * n
    scale = math.sqrt(bn * math.pi) * n**1.5
    for im, m in enumerate(ms):
        c = (m - th) / math.sqrt(n)

        def block(count, seed):
            T = sampler.batch_total_time(x - 1, m, count, seed)
            return int((T == target_T).sum())

        hits = sum(_blocks(cfg, cfg.replicas, (KIND_INVERSE_TIME, im), block))
        freq, se = _rate(hits, cfg.replicas)
        rows.append({"n": n, "x": x, "m": m, "c": c, "hits": hits, "replicas": cfg.replicas,
                     "scaled": scale * freq, "se_scaled": scale * se,
                     "predicted": math.exp(-4.0 * c * c / bn)})

    # direct-walk cross-check on the same events
    if cfg.cross_replicas:

        def wblock(count, seed):
            times, _, _ = vw.edge_hit_times(w, x - 1, ms, count, seed, t_cap=target_T)
            return (times == target_T).sum(axis=0)

        walk_hits = sum(_blocks(cfg, cfg.cross_replicas, (KIND_INVERSE_TIME, 800), wblock))
        tables["inverse_time_cross"] = cross_rows = []
        for im, m in enumerate(ms):
            c = (m - th) / math.sqrt(n)
            fw, sew = _rate(walk_hits[im], cfg.cross_replicas)
            fr = rows[im]["hits"] / cfg.replicas
            ser = rows[im]["se_scaled"] / scale
            cross_rows.append({"n": n, "x": x, "m": m, "c": c, "walk_freq": fw, "walk_se": sew,
                               "rk_freq": fr, "rk_se": ser})
            joint = math.hypot(sew, ser)
            checks.append(CheckResult(f"inverse_time_cross_m{m}", abs(fw - fr) <= 3 * joint + 1e-12,
                                      f"walk {fw:.3e}+-{sew:.1e} vs rk {fr:.3e}+-{ser:.1e}"))

    # c = 0 pilot band and |c| monotonicity
    by_absc: dict = {}
    for r in rows:
        by_absc.setdefault(round(abs(r["c"]), 6), []).append(r["scaled"])
    absc = sorted(by_absc)
    means = [sum(v) / len(v) for c_, v in sorted(by_absc.items())]
    band = exp["inverse_time_scaled_band_c0"]
    if 0.0 in by_absc:
        v0 = by_absc[0.0][0]
        checks.append(CheckResult("inverse_time_c0_band", band[0] <= v0 <= band[1],
                                  f"scaled {v0:.3f} in {band}"))
    checks.append(_monotone("inverse_time_monotone_absc", means, True,
                            f"|c| {absc} -> {['%.3f' % v for v in means]}"))
    return tables, checks, cfg.replicas * len(ms) + cfg.cross_replicas


# -- boundary local-time sums ------------------------------------------------------


@_campaign(WTermsConfig)
def w_boundary_terms(cfg: WTermsConfig):
    """Frequencies of {W_k > M n log^3 n} for the profile mass beyond the
    +-(n - sqrt(n) log n) boundary at T+_{0, theta_n(0)}, on an n ladder."""
    w = cfg.weight_fn()
    sampler = RayKnightSampler(w)
    rows, checks = [], []
    freq_by_k = {1: [], 2: []}
    for ip, (n, m) in enumerate(zip(cfg.n_ladder, cfg.levels())):
        boundary = n - math.sqrt(n) * math.log(n)
        threshold = cfg.M * n * math.log(n) ** 3

        def block(count, seed):
            w1, w2 = sampler.batch_boundary_sums(0, m, count, seed, boundary)
            return int((w1 > threshold).sum()), int((w2 > threshold).sum())

        h1, h2 = (sum(col) for col in zip(*_blocks(cfg, cfg.replicas, (KIND_WTERMS, ip), block)))
        for k, hits in ((1, h1), (2, h2)):
            freq, se = _rate(hits, cfg.replicas)
            freq_by_k[k].append(freq)
            rows.append({"n": n, "k": k, "m": m, "threshold": threshold, "hits": hits,
                         "replicas": cfg.replicas, "freq": freq, "se": se,
                         "upper95": upper95(hits, cfg.replicas)})
        joint = 3 * math.hypot(rows[-2]["se"], rows[-1]["se"]) + 1e-12  # the two rows just added
        checks.append(CheckResult(f"wterms_symmetry_n{n}", abs(h1 - h2) / cfg.replicas <= joint,
                                  f"freq1 {h1 / cfg.replicas:.2e} freq2 {h2 / cfg.replicas:.2e}"))
    for k in (1, 2):
        checks.append(_monotone(f"wterms_monotone_k{k}", freq_by_k[k], False, f"freqs {freq_by_k[k]}"))
    return {"wterms": rows}, checks, cfg.replicas * len(cfg.n_ladder)
