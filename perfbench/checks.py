"""Output checks, run after the timed region.

Each check compares srrw's output with a computation made here, apart from
srrw (see reference.py), or with a property the method must have.  Every
function returns a list of (name, passed, detail) tuples.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import reference

CHI2_P_MIN = 1e-6  # per k; the laws are exact, so only sampling noise can trip it
Z_MAX = 4.0
# KS of X(n^2)/n against U(-1,1) is 0.06-0.08 for 16 <= n <= 24; a walk with
# a Gaussian limit, like the simple random walk, sits at 0.159 or more.
KS_MAX = 0.1
MASS_TOL = 1e-12
MOMENT_RTOL = 1e-9
MARGINAL_TOL = 1e-12
STATIONARY_MEAN_TOL = 1e-6


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- endpoint ---------------------------------------------------------------------


def position_law_chi2(exact_laws: dict, positions: dict) -> list:
    """Chi-square test of sampled X(k) against the exact law, for each k."""
    out = []
    for k, law in sorted(exact_laws.items()):
        pos = np.asarray(positions[k])
        support = sorted(x for x, p in law.items() if p > 0)
        vals, cnts = np.unique(pos, return_counts=True)
        stray = sorted(set(vals.tolist()) - set(support))
        if stray:
            out.append((f"chi2_X{k}", False, f"positions off the exact support: {stray[:5]}"))
            continue
        observed = dict(zip(vals.tolist(), cnts.tolist()))
        obs = np.array([observed.get(x, 0) for x in support], dtype=float)
        exp = np.array([law[x] for x in support]) * len(pos)
        # pool cells expected below 5 so the chi-square approximation holds
        small = exp < 5
        if small.any():
            obs = np.append(obs[~small], obs[small].sum())
            exp = np.append(exp[~small], exp[small].sum())
        exp *= obs.sum() / exp.sum()
        p = float(stats.chisquare(obs, exp).pvalue)
        out.append((f"chi2_X{k}", p >= CHI2_P_MIN, f"p {p:.3g} over {len(obs)} cells"))
    return out


def endpoint_outputs(outdirs: list, ladder, replicas: int) -> list:
    """Checks on endpoint.csv and endpoint_hist.csv of endpoint campaigns.

    Count, parity and KS are checked per campaign; the zero-mean test pools
    the campaigns, which ran on independent seeds.
    """
    out = []
    pooled = {n: {} for n in ladder}
    for outdir in outdirs:
        reported = {int(r["n"]): float(r["ks"]) for r in _csv_rows(outdir / "endpoint.csv")}
        hist: dict = {}
        for r in _csv_rows(outdir / "endpoint_hist.csv"):
            hist.setdefault(int(r["n"]), []).append((int(r["x"]), int(r["count"])))
        out.append(("endpoint_ladder", sorted(hist) == sorted(ladder) == sorted(reported),
                    f"hist n {sorted(hist)}, table n {sorted(reported)}"))
        for n in ladder:
            xs = np.array([x for x, _ in hist.get(n, [])])
            cs = np.array([c for _, c in hist.get(n, [])])
            total = int(cs.sum())
            out.append((f"endpoint_count_n{n}", total == replicas, f"{total} of {replicas}"))
            if total == 0:
                continue
            out.append((f"endpoint_parity_n{n}", bool(np.all((xs - n * n) % 2 == 0)),
                        f"positions must share the parity of n^2 = {n * n}"))
            ks = float(stats.kstest(np.repeat(xs / n, cs), stats.uniform(loc=-1.0, scale=2.0).cdf).statistic)
            out.append((f"endpoint_ks_recomputed_n{n}", abs(ks - reported.get(n, math.inf)) <= 1e-12,
                        f"scipy {ks!r} vs reported {reported.get(n)!r}"))
            out.append((f"endpoint_ks_n{n}", ks < KS_MAX, f"ks {ks:.4f} < {KS_MAX}"))
            for x, c in zip(xs.tolist(), cs.tolist()):
                pooled[n][x] = pooled[n].get(x, 0) + c
    for n, counts in pooled.items():
        xs = np.array(list(counts), dtype=float) / n
        cs = np.array(list(counts.values()), dtype=float)
        total = cs.sum()
        if total == 0:
            continue
        mean = float(xs @ cs) / total
        se = math.sqrt(max(float(xs**2 @ cs) / total - mean**2, 0.0) / total)
        out.append((f"endpoint_mean_n{n}", abs(mean) <= Z_MAX * se,
                    f"mean {mean:.5f}, {Z_MAX} se {Z_MAX * se:.5f}"))
    return out


# -- inverse time ------------------------------------------------------------------


def inverse_time_outputs(reports: list, n: int, replicas: int, cross_replicas: int,
                         sigma2: float, band) -> list:
    """The c = 0 hit count per campaign, and walk route against sampler route
    at every m, pooled over the campaigns (independent seeds)."""
    out = []
    hits = {}  # m -> [sampler hits, walk hits, campaigns]
    for report in reports:
        rows = {int(r["m"]): r for r in report["tables"]["inverse_time"]}
        cross = {int(r["m"]): r for r in report["tables"].get("inverse_time_cross", [])}
        out.append(("inverse_time_routes", bool(rows) and sorted(rows) == sorted(cross),
                    f"sampler m {sorted(rows)}, walk m {sorted(cross)}"))
        for m in sorted(set(rows) & set(cross)):
            hw = float(cross[m]["walk_freq"]) * cross_replicas
            if abs(hw - round(hw)) > 1e-6:
                out.append((f"inverse_time_walk_hits_m{m}", False, f"walk frequency gives {hw} hits"))
                continue
            h = hits.setdefault(m, [0, 0, 0])
            h[0] += int(rows[m]["hits"])
            h[1] += round(hw)
            h[2] += 1
        zero = [r for r in report["tables"]["inverse_time"] if float(r["c"]) == 0.0]
        if not zero:
            out.append(("inverse_time_c0", False, "no c = 0 row"))
            continue
        h0 = int(zero[0]["hits"])
        beta = 4.0 * sigma2 / 3.0  # beta_n at x = 0
        scaled = h0 / replicas * math.sqrt(beta * math.pi) * n**1.5
        out.append(("inverse_time_c0_hits", h0 > 0, f"{h0} hits"))
        out.append(("inverse_time_c0_band", band[0] <= scaled <= band[1], f"scaled {scaled:.3f} in {band}"))
    for m, (hr, hw, k) in sorted(hits.items()):
        nr, nw = k * replicas, k * cross_replicas
        fr, fw = hr / nr, hw / nw
        pooled = (hr + hw) / (nr + nw)
        se = math.sqrt(pooled * (1 - pooled) * (1 / nr + 1 / nw))
        out.append((f"inverse_time_agree_m{m}", abs(fr - fw) <= Z_MAX * se,
                    f"sampler {fr:.3e} walk {fw:.3e}, {Z_MAX} joint se {Z_MAX * se:.1e}"))
    return out


# -- exact local CLT ---------------------------------------------------------------


def lclt_outputs(payload: dict, cap: dict, sigma2: float) -> list:
    """Checks on lclt.json and on the exact PMF srrw computed for it."""
    out = []
    N = int(cap["N"])
    c = int(cap["c"])
    total = float(payload["total_mass"]) + float(payload["truncated_mass"])
    out.append(("lclt_mass", abs(total - 1.0) <= MASS_TOL, f"total + truncated = 1 {total - 1.0:+.2e}"))
    pm = cap["occupied"]
    a = cap["a_values"]
    bt = cap["bt_values"]
    pa = pm.sum(axis=1)
    mass = pa.sum()
    ey = float(a @ pa) / mass
    ebt = float(bt @ pm.sum(axis=0)) / mass
    es = ebt + c * ey
    s_grid = bt[None, :] + c * a[:, None]
    var_y = float(((a - ey) ** 2) @ pa) / mass
    var_s = float((((s_grid - es) ** 2) * pm).sum()) / mass
    cov = float((((a - ey)[:, None] * (s_grid - es)) * pm).sum()) / mass
    want = {
        "var_Y": N * sigma2,
        "var_S": sigma2 * N * (N + 1) * (2 * N + 1) / 6,
        "cov_YS": sigma2 * N * (N + 1) / 2,
    }
    got = {"var_Y": var_y, "var_S": var_s, "cov_YS": cov}
    out.append(("lclt_mean_Y", abs(ey) <= MOMENT_RTOL * math.sqrt(want["var_Y"]), f"E[Y] {ey:.3e}"))
    out.append(("lclt_mean_S", abs(es) <= MOMENT_RTOL * math.sqrt(want["var_S"]), f"E[S] {es:.3e}"))
    for k in want:
        rel = abs(got[k] / want[k] - 1.0)
        out.append((f"lclt_{k}", rel <= MOMENT_RTOL, f"{got[k]!r} vs closed form {want[k]!r}"))
    # Y-marginal against an N-fold convolution of the step law
    conv = reference.n_fold_convolution(cap["step_probs"], N)
    y_lo = N * (float(cap["step_lo"]) + float(cap["step_offset"]))
    idx = np.round(a - y_lo).astype(np.int64)
    inside = (idx >= 0) & (idx < len(conv))
    dev = np.abs(pa[inside] - conv[idx[inside]]).max(initial=0.0)
    missing = conv.sum() - conv[idx[inside]].sum()
    out.append(("lclt_Y_marginal", bool(inside.all()) and dev <= MARGINAL_TOL and missing <= MARGINAL_TOL,
                f"max |diff| {dev:.2e}, convolution mass off the grid {missing:.2e}"))
    nu = cap["nu_probs"]
    states = float(cap["nu_lo"]) + np.arange(len(nu))
    nu_mean = float(states @ nu) / float(nu.sum())
    out.append(("stationary_mean", abs(nu_mean + 0.5) <= STATIONARY_MEAN_TOL, f"mean {nu_mean!r}"))
    return out


def load_lclt(outdir: Path):
    with open(outdir / "lclt.json") as fh:
        payload = json.load(fh)
    with np.load(outdir / "capture_lclt.npz") as z:
        cap = {k: z[k] for k in z.files}
    return payload, cap
