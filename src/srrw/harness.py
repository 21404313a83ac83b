"""Parallel Monte Carlo campaigns confronting simulation with the limit laws.

Replicas are partitioned into fixed-size blocks; block b of campaign point p
draws from the Philox stream SeedSequence(master_seed, spawn_key=(kind, p, b)).
Workers only decide which thread runs which block, reductions happen in block
order, and all estimators reduce integer counts, so reports are bit-identical
under any thread budget.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import vectorwalk as vw
from .errors import CampaignConfigError
from .rayknight import RayKnightSampler, tail_probe_site
from .reporting import CheckResult, StatsReport, Stopwatch
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


def substream(master_seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))


def map_blocks(total: int, block_size: int, threads: int, fn):
    """fn(block_index, count) for each block; results returned in block order."""
    blocks = []
    done = 0
    i = 0
    while done < total:
        n = min(block_size, total - done)
        blocks.append((i, n))
        done += n
        i += 1
    if threads <= 1:
        return [fn(b, n) for b, n in blocks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futs = [ex.submit(fn, b, n) for b, n in blocks]
        return [f.result() for f in futs]


def load_expectations(path: str | None = None) -> dict:
    """Pilot-calibrated tolerance bands; SRRW_EXPECTATIONS overrides the path."""
    path = path or os.environ.get("SRRW_EXPECTATIONS")
    if path:
        with open(path) as fh:
            return json.load(fh)
    with resources.files("srrw").joinpath("expectations.json").open() as fh:
        return json.load(fh)


def growth_log2(m: float) -> float:
    return math.log(m) ** 2


GROWTH_FUNCTIONS = {"log2": growth_log2}


def upper95(hits: int, n: int) -> float:
    """Clopper-Pearson 95% upper confidence bound for a binomial frequency."""
    if hits >= n:
        return 1.0
    # scipy.stats takes most of a second to import; only the tail campaigns need it
    from scipy.stats import beta

    return float(beta.ppf(0.95, hits + 1, n - hits))


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


@dataclass(frozen=True)
class CampaignConfig:
    weight: dict = field(default_factory=lambda: {"family": "exponential", "rate": 1.0})
    master_seed: int = 0
    threads: int = 1
    block_size: int = DEFAULT_BLOCK

    def weight_fn(self) -> WeightFunction:
        return WeightFunction.from_spec(self.weight)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class EndpointConfig(CampaignConfig):
    kind = "endpoint"
    n_ladder: tuple = (50, 100, 200)
    replicas: int = 100_000
    budget_steps: int | None = None


@dataclass(frozen=True)
class LcltTableConfig(CampaignConfig):
    kind = "lclt_table"
    n: int = 60
    replicas: int = 1_000_000
    alpha: float = 0.6
    eps: float = 0.2
    budget_steps: int | None = None


@dataclass(frozen=True)
class ProfileShapeConfig(CampaignConfig):
    kind = "profile_shape"
    k_ladder: tuple = (10_000, 40_000, 160_000)
    replicas: int = 200


@dataclass(frozen=True)
class TailConfig(CampaignConfig):
    kind = "tails"
    m_ladder: tuple = (1_000, 10_000, 100_000)
    replicas_per_m: tuple = (20_000, 20_000, 4_000)
    growth: str = "log2"
    cross_m: int = 50
    cross_replicas: int = 4_000

    def __post_init__(self):
        g = GROWTH_FUNCTIONS[self.growth]
        for m in self.m_ladder:
            if tail_probe_site(m, g(m)) < 1:
                raise CampaignConfigError(f"tails: m={m} is too small for the {self.growth} growth function")
        if len(self.replicas_per_m) != len(self.m_ladder):
            raise CampaignConfigError(
                f"tails: replicas_per_m has {len(self.replicas_per_m)} entries for {len(self.m_ladder)} m_ladder points"
            )


@dataclass(frozen=True)
class InverseTimeConfig(CampaignConfig):
    kind = "inverse_time"
    n: int = 24
    x: int = 0
    c_targets: tuple = (-1.0, -0.5, 0.0, 0.5, 1.0)
    replicas: int = 10_000_000
    cross_replicas: int = 1_000_000
    riemann_n: int = 10_000
    riemann_K: float = 6.0

    def __post_init__(self):
        if (self.x - self.n * self.n) % 2 != 0:
            raise CampaignConfigError(f"inverse_time: x={self.x} must share the parity of n^2 = {self.n * self.n}")


@dataclass(frozen=True)
class WTermsConfig(CampaignConfig):
    kind = "wterms"
    n_ladder: tuple = (50, 100, 200)
    M: float = 1.0
    replicas: int = 20_000


CONFIG_KINDS = {
    "endpoint": EndpointConfig,
    "lclt_table": LcltTableConfig,
    "profile_shape": ProfileShapeConfig,
    "tails": TailConfig,
    "inverse_time": InverseTimeConfig,
    "wterms": WTermsConfig,
}


def config_from_dict(d: dict) -> CampaignConfig:
    d = dict(d)
    kind = d.pop("kind")
    cls = CONFIG_KINDS[kind]
    for key in ("n_ladder", "k_ladder", "m_ladder", "replicas_per_m", "c_targets"):
        if key in d and isinstance(d[key], list):
            d[key] = tuple(d[key])
    return cls(**d)


def run_campaign(cfg: CampaignConfig) -> StatsReport:
    return _RUNNERS[cfg.kind](cfg)


# -- endpoint law (diffusive limit) ---------------------------------------------


def position_histogram(cfg, w: WeightFunction, steps: int, kind: int, point: int):
    """Counts {x: replicas with X(steps) = x} for one campaign point.

    Runs cfg.replicas walks, cut to fit cfg.budget_steps replica-steps;
    block b draws from substream (kind, point, b).  Returns (counts,
    replicas run, whether the budget cut them).
    """
    replicas = cfg.replicas
    partial = bool(cfg.budget_steps and steps * replicas > cfg.budget_steps)
    if partial:
        replicas = max(cfg.budget_steps // steps, 1)

    def block(b, count):
        pos, _, _ = vw.final_positions(w, steps, count, substream(cfg.master_seed, kind, point, b))
        return np.unique(pos, return_counts=True)

    counter: dict = {}
    for vals, cnts in map_blocks(replicas, cfg.block_size, cfg.threads, block):
        for v, c in zip(vals.tolist(), cnts.tolist()):
            counter[v] = counter.get(v, 0) + c
    return counter, replicas, partial


def endpoint_law(cfg: EndpointConfig, expectations: dict | None = None) -> StatsReport:
    """Empirical law of X(n^2)/n against U(-1,1) along the n ladder."""
    watch = Stopwatch()
    exp = expectations or load_expectations()
    w = cfg.weight_fn()
    rows, hist_rows, checks = [], [], []
    ks_values = []
    total = 0
    for ip, n in enumerate(cfg.n_ladder):
        counter, replicas, partial = position_histogram(cfg, w, n * n, KIND_ENDPOINT, ip)
        total += replicas
        values = np.array(sorted(counter))
        counts = np.array([counter[v] for v in values.tolist()], dtype=np.int64)
        ks = ks_vs_uniform(values, counts, float(n))
        mean = float((values * counts).sum()) / replicas / n
        var = float((values**2 * counts).sum()) / replicas / n**2 - mean**2
        se_mean = math.sqrt(max(var, 0.0) / replicas)
        rows.append({"n": n, "replicas": replicas, "ks": ks, "mean_scaled": mean, "se_mean": se_mean, "partial": partial})
        for v, c in zip(values.tolist(), counts.tolist()):
            hist_rows.append({"n": n, "x": v, "count": c})
        ks_values.append(ks)
        checks.append(CheckResult(f"endpoint_mean_zero_n{n}", abs(mean) <= 3 * se_mean + 1e-12,
                                  f"mean {mean:.5f} se {se_mean:.5f}"))
        band = exp.get("endpoint_ks_max", {}).get(str(n))
        if band is not None:
            checks.append(CheckResult(f"endpoint_ks_n{n}", ks < band, f"ks {ks:.4f} < {band}"))
    if len(ks_values) > 1:
        mono = all(b < a for a, b in zip(ks_values, ks_values[1:]))
        checks.append(CheckResult("endpoint_ks_monotone", mono, f"ks ladder {ks_values}"))
    report = StatsReport(kind="endpoint", config=cfg.to_dict(),
                         tables={"endpoint": rows, "endpoint_hist": hist_rows},
                         checks=checks, replicas_total=total)
    report.wall_clock_s = watch.elapsed()
    return report


# -- pointwise lower bound table -------------------------------------------------


def local_clt_table(cfg: LcltTableConfig) -> StatsReport:
    """n * P(X(n^2) = x) over the admissible parity grid, with flags."""
    watch = Stopwatch()
    w = cfg.weight_fn()
    n = cfg.n
    steps = n * n
    counter, replicas, partial = position_histogram(cfg, w, steps, KIND_LCLT_TABLE, 0)

    x_max = int(n - n**cfg.alpha)
    parity = steps % 2
    grid = [x for x in range(-x_max, x_max + 1) if abs(x) % 2 == parity]
    observed_max = max(abs(v) for v in counter) if counter else 0
    rows = []
    low_cells = []
    undersampled = 0
    for x in grid:
        hits = counter.get(x, 0)
        phat = hits / replicas
        n_phat = n * phat
        se = n * math.sqrt(max(phat * (1 - phat), 0.0) / replicas)
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
        rows.append({"n": n, "x": x, "hits": hits, "n_phat": n_phat, "se": se, "flag": flag})
    mass = sum(counter.get(x, 0) for x in grid) / replicas
    checks = [
        CheckResult("lclt_table_mass", mass <= 1.0 + 1e-12, f"grid mass {mass:.4f}"),
        CheckResult("lclt_table_lower_bound", not low_cells,
                    f"{len(low_cells)} cells below {1 - cfg.eps} (e.g. {low_cells[:5]}); undersampled {undersampled}"),
    ]
    if partial:
        checks.append(CheckResult("lclt_table_partial", False, "budget truncated the replica count"))
    report = StatsReport(kind="lclt_table", config=cfg.to_dict(), tables={"lclt_table": rows},
                         checks=checks, replicas_total=replicas)
    report.wall_clock_s = watch.elapsed()
    return report


# -- profile shape (triangular local-time law) -----------------------------------


def profile_shape(cfg: ProfileShapeConfig) -> StatsReport:
    """Per-replica sup deviation of l+(k, .)/sqrt(k) from the triangular
    profile, per ladder point; medians must decrease along the ladder."""
    watch = Stopwatch()
    w = cfg.weight_fn()
    rows, checks = [], []
    medians = []
    for ip, k in enumerate(cfg.k_ladder):
        sq = math.sqrt(k)

        def block(b, count, _k=k, _ip=ip):
            pos, lp, site_lo = vw.final_positions(
                w, _k, count, substream(cfg.master_seed, KIND_PROFILE_SHAPE, _ip, b), want_lplus=True
            )
            sites = site_lo + np.arange(lp.shape[1])
            target = 0.5 * np.clip(1.0 - np.abs(sites) / sq, 0.0, None)
            dev = np.abs(lp / sq - target[None, :]).max(axis=1)
            return dev

        devs = np.concatenate(map_blocks(cfg.replicas, cfg.block_size, cfg.threads, block))
        med = float(np.median(devs))
        p95 = float(np.quantile(devs, 0.95))
        rows.append({"k": k, "replicas": cfg.replicas, "median_dev": med, "p95_dev": p95})
        medians.append(med)
        checks.append(CheckResult(f"profile_dev_nonneg_k{k}", bool((devs >= 0).all()), ""))
    if len(medians) > 1:
        mono = all(b < a for a, b in zip(medians, medians[1:]))
        checks.append(CheckResult("profile_median_monotone", mono, f"medians {medians}"))
    report = StatsReport(kind="profile_shape", config=cfg.to_dict(),
                         tables={"profile_shape": rows}, checks=checks,
                         replicas_total=cfg.replicas * len(cfg.k_ladder))
    report.wall_clock_s = watch.elapsed()
    return report


# -- range / profile tail events --------------------------------------------------


def tail_bounds_suite(cfg: TailConfig, expectations: dict | None = None) -> StatsReport:
    """Frequencies of the rho/lam and profile tail events on the m ladder,
    via the profile sampler, plus a walk-vs-sampler cross statistic."""
    watch = Stopwatch()
    exp = expectations or load_expectations()
    w = cfg.weight_fn()
    g = GROWTH_FUNCTIONS[cfg.growth]
    sampler = RayKnightSampler(w)
    rows, checks = [], []
    freqs: dict = {"rho": [], "lam": [], "l_gt": [], "l_lt": []}
    total = 0
    for ip, (m, reps) in enumerate(zip(cfg.m_ladder, cfg.replicas_per_m)):
        g_m = g(m)
        agg = {"rho": 0, "lam": 0, "l_gt": 0, "l_lt": 0}

        def block(b, count, _m=m, _ip=ip, _g=g_m):
            return sampler.batch_tail_events(_m, count, substream(cfg.master_seed, KIND_TAILS, _ip, b), _g)

        thresholds = {
            "rho": math.ceil(2 * m + math.sqrt(m) * g_m),
            "lam": -math.ceil(2 * m + math.sqrt(m) * g_m),
            "l_gt": 3.0 * math.sqrt(m * g_m),
            "l_lt": math.sqrt(m * g_m),
        }
        for out in map_blocks(reps, cfg.block_size, cfg.threads, block):
            for ev in agg:
                agg[ev] += out[ev]
        total += reps
        for ev in ("rho", "lam", "l_gt", "l_lt"):
            freq = agg[ev] / reps
            freqs[ev].append(freq)
            rows.append({"m": m, "event": ev, "threshold": thresholds[ev], "hits": agg[ev],
                         "replicas": reps, "freq": freq,
                         "se": math.sqrt(max(freq * (1 - freq), 0.0) / reps),
                         "upper95": upper95(agg[ev], reps)})
    top_max = exp.get("tail_top_freq_max", 0.01)
    for ev, fl in freqs.items():
        mono = all(b <= a for a, b in zip(fl, fl[1:]))
        checks.append(CheckResult(f"tail_{ev}_monotone", mono, f"freqs {fl}"))
        checks.append(CheckResult(f"tail_{ev}_top", fl[-1] < top_max, f"top freq {fl[-1]} < {top_max}"))

    # cross-validation: mean T+_{0,m} from the walk vs the sampler
    cross_rows = []
    if cfg.cross_m and cfg.cross_replicas:
        m = cfg.cross_m
        times, _, unfin = vw.edge_hit_times(
            w, 0, [m], cfg.cross_replicas, substream(cfg.master_seed, KIND_TAILS, 900), t_cap=400 * m * m
        )
        t_walk = times[times[:, 0] > 0, 0].astype(np.float64)
        t_rk = np.concatenate(map_blocks(
            cfg.cross_replicas, cfg.block_size, cfg.threads,
            lambda b, count: sampler.batch_total_time(0, m, count, substream(cfg.master_seed, KIND_TAILS, 901, b)),
        )).astype(np.float64)
        mw, sw = float(t_walk.mean()), float(t_walk.std(ddof=1) / math.sqrt(len(t_walk)))
        mr, sr = float(t_rk.mean()), float(t_rk.std(ddof=1) / math.sqrt(len(t_rk)))
        cross_rows.append({"m": m, "statistic": "mean_T", "walk_value": mw, "walk_se": sw,
                           "rk_value": mr, "rk_se": sr})
        joint = math.hypot(sw, sr)
        checks.append(CheckResult("tail_cross_validation", abs(mw - mr) <= 3 * joint and len(unfin) == 0,
                                  f"walk {mw:.2f}+-{sw:.2f} vs rk {mr:.2f}+-{sr:.2f}"))
    tables = {"tails": rows}
    if cross_rows:
        tables["tail_cross"] = cross_rows
    report = StatsReport(kind="tails", config=cfg.to_dict(), tables=tables, checks=checks,
                         replicas_total=total)
    report.wall_clock_s = watch.elapsed()
    return report


# -- inverse-local-time hitting asymptotics ---------------------------------------


def inverse_time_asymptotics(cfg: InverseTimeConfig, sigma2: float | None = None,
                             expectations: dict | None = None) -> StatsReport:
    """Scaled estimate of P(T = n^2) for the inverse local times that land on
    x, across admissible c, against the Gaussian benchmark exp(-4c^2/beta_n).

    The hitting event uses the edge (x-1) -> x: the inverse local time at
    x-1 places the walk at x, matching the parity of n^2 for even x.
    Includes the pure-numerics Riemann-sum identity check.
    """
    watch = Stopwatch()
    exp = expectations or load_expectations()
    w = cfg.weight_fn()
    n, x = cfg.n, cfg.x
    sampler = RayKnightSampler(w)
    s2 = sampler.sigma2 if sigma2 is None else sigma2
    bn = beta_n_formula(n, x, s2)
    th = theta(float(n), float(x))

    # admissible integer levels nearest the requested c targets
    ms = sorted({int(round(th + c * math.sqrt(n))) for c in cfg.c_targets})
    ms = [m for m in ms if m >= 1]
    rows, cross_rows, checks = [], [], []

    # Riemann-sum identity (no simulation)
    rn = cfg.riemann_n
    bn_r = beta_n_formula(rn, 0, s2)
    js = np.arange(-int(cfg.riemann_K * math.sqrt(rn)), int(cfg.riemann_K * math.sqrt(rn)) + 1)
    riemann = float(np.sqrt(4.0 / (bn_r * math.pi * rn)) * np.exp(-4.0 * js**2 / (bn_r * rn)).sum())
    riemann_rows = [{"n": rn, "x": 0, "K": cfg.riemann_K, "value": riemann, "abs_error": abs(riemann - 1.0)}]
    checks.append(CheckResult("riemann_identity", abs(riemann - 1.0) < 0.01, f"sum {riemann:.6f}"))

    target_T = n * n
    scale = math.sqrt(bn * math.pi) * n**1.5
    for im, m in enumerate(ms):
        c = (m - th) / math.sqrt(n)

        def block(b, count, _m=m, _im=im):
            T = sampler.batch_total_time(x - 1, _m, count, substream(cfg.master_seed, KIND_INVERSE_TIME, _im, b))
            return int((T == target_T).sum())

        hits = sum(map_blocks(cfg.replicas, cfg.block_size, cfg.threads, block))
        freq = hits / cfg.replicas
        se = math.sqrt(max(freq * (1 - freq), 0.0) / cfg.replicas)
        rows.append({"n": n, "x": x, "m": m, "c": c, "hits": hits, "replicas": cfg.replicas,
                     "scaled": scale * freq, "se_scaled": scale * se,
                     "predicted": math.exp(-4.0 * c * c / bn)})

    # direct-walk cross-check on the same events
    if cfg.cross_replicas:
        agg = np.zeros(len(ms), dtype=np.int64)
        blocks_n = 0

        def wblock(b, count):
            times, _, _ = vw.edge_hit_times(
                w, x - 1, ms, count, substream(cfg.master_seed, KIND_INVERSE_TIME, 800, b), t_cap=target_T
            )
            return (times == target_T).sum(axis=0)

        for out in map_blocks(cfg.cross_replicas, cfg.block_size, cfg.threads, wblock):
            agg += out
            blocks_n += 1
        for im, m in enumerate(ms):
            c = (m - th) / math.sqrt(n)
            fw = agg[im] / cfg.cross_replicas
            sew = math.sqrt(max(fw * (1 - fw), 0.0) / cfg.cross_replicas)
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
    band = exp.get("inverse_time_scaled_band_c0", [0.7, 1.3])
    if 0.0 in by_absc:
        v0 = by_absc[0.0][0]
        checks.append(CheckResult("inverse_time_c0_band", band[0] <= v0 <= band[1],
                                  f"scaled {v0:.3f} in {band}"))
    mono = all(b < a for a, b in zip(means, means[1:]))
    checks.append(CheckResult("inverse_time_monotone_absc", mono,
                              f"|c| {absc} -> {['%.3f' % v for v in means]}"))
    tables = {"inverse_time": rows, "riemann": riemann_rows}
    if cross_rows:
        tables["inverse_time_cross"] = cross_rows
    report = StatsReport(kind="inverse_time", config=cfg.to_dict(), tables=tables, checks=checks,
                         replicas_total=cfg.replicas * len(ms) + cfg.cross_replicas)
    report.wall_clock_s = watch.elapsed()
    return report


# -- boundary local-time sums ------------------------------------------------------


def w_boundary_terms(cfg: WTermsConfig) -> StatsReport:
    """Frequencies of {W_k > M n log^3 n} for the profile mass beyond the
    +-(n - sqrt(n) log n) boundary at T+_{0, theta_n(0)}, on an n ladder."""
    watch = Stopwatch()
    w = cfg.weight_fn()
    sampler = RayKnightSampler(w)
    rows, checks = [], []
    freq_by_k = {1: [], 2: []}
    for ip, n in enumerate(cfg.n_ladder):
        m = int(round(theta(float(n), 0.0)))
        boundary = n - math.sqrt(n) * math.log(n)
        threshold = cfg.M * n * math.log(n) ** 3
        h1 = h2 = 0

        def block(b, count, _m=m, _ip=ip, _bd=boundary, _th=threshold):
            w1, w2 = sampler.batch_boundary_sums(0, _m, count, substream(cfg.master_seed, KIND_WTERMS, _ip, b), _bd)
            return int((w1 > _th).sum()), int((w2 > _th).sum()), int((w1 < 0).sum() + (w2 < 0).sum())

        negs = 0
        for a, b_, neg in map_blocks(cfg.replicas, cfg.block_size, cfg.threads, block):
            h1 += a
            h2 += b_
            negs += neg
        for k, hits in ((1, h1), (2, h2)):
            freq = hits / cfg.replicas
            freq_by_k[k].append(freq)
            rows.append({"n": n, "k": k, "m": m, "threshold": threshold, "hits": hits,
                         "replicas": cfg.replicas, "freq": freq,
                         "se": math.sqrt(max(freq * (1 - freq), 0.0) / cfg.replicas),
                         "upper95": upper95(hits, cfg.replicas)})
        checks.append(CheckResult(f"wterms_nonneg_n{n}", negs == 0, ""))
        se = math.sqrt(max(h1 / cfg.replicas * (1 - h1 / cfg.replicas), 0.0) / cfg.replicas)
        joint = 3 * math.hypot(se, se) + 1e-12
        checks.append(CheckResult(f"wterms_symmetry_n{n}", abs(h1 - h2) / cfg.replicas <= joint,
                                  f"freq1 {h1 / cfg.replicas:.2e} freq2 {h2 / cfg.replicas:.2e}"))
    for k in (1, 2):
        mono = all(b <= a for a, b in zip(freq_by_k[k], freq_by_k[k][1:]))
        checks.append(CheckResult(f"wterms_monotone_k{k}", mono, f"freqs {freq_by_k[k]}"))
    report = StatsReport(kind="wterms", config=cfg.to_dict(), tables={"wterms": rows},
                         checks=checks, replicas_total=cfg.replicas * len(cfg.n_ladder))
    report.wall_clock_s = watch.elapsed()
    return report


_RUNNERS = {
    "endpoint": endpoint_law,
    "lclt_table": local_clt_table,
    "profile_shape": profile_shape,
    "tails": tail_bounds_suite,
    "inverse_time": inverse_time_asymptotics,
    "wterms": w_boundary_terms,
}
