"""Layer bench for the lockstep walk, the Ray-Knight sampler, the stationary solve and marginal table, the embedded-chain
sampler, the exact local-CLT DP, the lclt CLI and the CLI import, before and after.

    python scripts/bench.py --baseline PARENT_CHECKOUT --out OUT.json

Measures, in a fresh process each, the wall time of `import srrw.cli`, of
one single-threaded `vectorwalk.final_positions` block of WALK_REPLICAS exp:1
walks over WALK_STEPS steps (replica-steps/s alongside, and a sha256 of the
final positions, which must agree between trees), of two such blocks run
concurrently on two threads through `harness.map_blocks`, as the endpoint
campaign runs them (CPU time and a sha256 of both blocks' positions), of one
single-threaded `vectorwalk.edge_hit_times` block of WALK_REPLICAS walks at
the n=24 inverse-time campaign's edge, levels and t_cap = 576, the driver
with a retiring hook (a sha256 of the hit times), of two such blocks run
concurrently on two threads through `harness.map_blocks`, as the
inverse-time campaign's walk cross-check runs them (CPU time and a sha256 of
both blocks' hit times), of one `harness.endpoint_law` campaign on
ENDPOINT_LADDER with ENDPOINT_REPLICAS replicas on two threads, the perfbench
endpoint operation without its CLI (CPU time and a sha256 of the first
ladder point's rows, which must agree between trees), each walk case with
its peak RSS and the part of it above the high-water mark the imports left,
of one single-threaded
`RayKnightSampler.batch_total_time(-1, m, RK_REPLICAS)` block at each m in
RK_LEVELS on exp:1 (profiles/s, the time and count of the
`MarginalTable.draw` calls inside it, draws/s, the minor page faults of the
blocks, and a sha256 of the totals, which must agree between trees), of one
single-threaded `RayKnightSampler.batch_tail_events(TAIL_M, TAIL_REPLICAS)`
block at the tail campaign's g = log^2 m (the same draw and fault figures,
and a sha256 of the event counts), of the exp:1 stationary solve and
marginal-table build on the sampler's (-40, 40) window, ETA_BUILDS times from a fresh kernel (the mean
time of each per build, with the solve's iterations, the table's rows and a
sha256 of both laws), of one `eta.sample_eta_chain` run of
ETA_CHAIN_STEPS steps on exp:1 (steps/s and a sha256 of the states), and of
`lclt.exact_bivariate_pmf` on the exp:1 stationary step law at each N in
SIZES (computed cells/s alongside, and the DP's own memory: the peak RSS
above the high-water mark the imports left), of one `srrw lclt --N LCLT_N`
CLI run: the DP, both sup errors and the lclt_grid.csv writer, with a sha256
of each of its two result files, of one `srrw profile PROFILE_ARGS` CLI run
(CPU time, the process's peak RSS read from VmHWM, the part of it above the
mark the imports left, and a sha256 of the y, mean and zero_frac columns of
profile.csv, which must agree between trees), and of one
`harness.profile_shape` campaign on the default k ladder with
PROFILE_SHAPE_REPLICAS replicas (CPU time and a sha256 of its first row).  The first DP run of each tree
saves its occupied box; the report's "dp_agreement" gives, per N, both
trees' box and truncated_mass and the largest absolute cell difference
between them.  Every tree named (this
checkout as "change", --baseline as "parent") is run with PYTHONPATH pointing
at its own src/.  There are REPEATS pairs of runs per case, alternating which
tree goes first; the medians, every sample and the parent/change ratio of
each pair go to --out with the CPU count, the numpy and scipy versions, each
tree's git commit and a sha256 of its src/ files (the commit alone does not
name an uncommitted tree).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 200, 400)
WALK_REPLICAS = 65536
WALK_STEPS = 400
RK_REPLICAS = 65536
RK_LEVELS = (7, 10, 12, 14, 17)  # the m levels of the n=24 inverse-time campaign
TAIL_M = 1000
TAIL_REPLICAS = 20000  # the first point of the tail campaign's default ladder
ETA_WINDOW = (-40, 40)  # eta.DEFAULT_WINDOW, the window RayKnightSampler and the step law solve on
ETA_BUILDS = 20  # one build takes a few ms
ETA_CHAIN_STEPS = 1_000_000
LCLT_N = 200  # the size of the benchmark's lclt_exact operation
ENDPOINT_LADDER, ENDPOINT_REPLICAS = (16, 20), 131072  # the perfbench endpoint operation
EDGE_SITE, EDGE_T_CAP = -1, 576  # the n=24 inverse-time cross-check: edge x-1 at x=0, t_cap n^2
PROFILE_ARGS = ["--w", "exp:1", "--m", "1600", "--replicas", "2000", "--seed", "3"]
PROFILE_SHAPE_REPLICAS = 200  # the profile-shape campaign's default
REPEATS = 10


def child_import() -> dict:
    t0 = time.perf_counter()
    import srrw.cli  # noqa: F401

    return {"wall_s": time.perf_counter() - t0}


def _walk_case(fn) -> tuple:
    """fn(w, harness, vectorwalk) on exp:1, with its wall and CPU time and the
    peak RSS, whole and above the high-water mark the imports left."""
    import resource

    from srrw import harness, vectorwalk
    from srrw.weights import WeightFunction

    w = WeightFunction("exponential", (1.0,))
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0, c0 = time.perf_counter(), time.process_time()
    out = fn(w, harness, vectorwalk)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, "walk_rss_mb": peak - base}


def child_walk() -> dict:
    pos, res = _walk_case(lambda w, harness, vw: vw.final_positions(
        w, WALK_STEPS, WALK_REPLICAS, harness.substream(1, 0))[0])
    return {
        **res,
        "replica_steps_per_s": WALK_REPLICAS * WALK_STEPS / res["wall_s"],
        "positions_sha256": hashlib.sha256(pos.tobytes()).hexdigest(),
    }


def child_walk2() -> dict:
    def run(w, harness, vw):
        return harness.map_blocks(2 * WALK_REPLICAS, WALK_REPLICAS, 2, lambda b, count: vw.final_positions(
            w, WALK_STEPS, count, harness.substream(1, b))[0])

    pos, res = _walk_case(run)
    return {
        **res,
        "replica_steps_per_s": 2 * WALK_REPLICAS * WALK_STEPS / res["wall_s"],
        "positions_sha256": hashlib.sha256(b"".join(p.tobytes() for p in pos)).hexdigest(),
    }


def child_edge() -> dict:
    (times, _, unfinished), res = _walk_case(lambda w, harness, vw: vw.edge_hit_times(
        w, EDGE_SITE, RK_LEVELS, WALK_REPLICAS, harness.substream(1, 0), t_cap=EDGE_T_CAP))
    return {
        **res,
        "unfinished": len(unfinished),
        "times_sha256": hashlib.sha256(times.tobytes() + unfinished.tobytes()).hexdigest(),
    }


def child_edge2() -> dict:
    def run(w, harness, vw):
        return harness.map_blocks(2 * WALK_REPLICAS, WALK_REPLICAS, 2, lambda b, count: vw.edge_hit_times(
            w, EDGE_SITE, RK_LEVELS, count, harness.substream(1, b), t_cap=EDGE_T_CAP))

    blocks, res = _walk_case(run)
    return {
        **res,
        "unfinished": sum(len(unfinished) for _, _, unfinished in blocks),
        "times_sha256": hashlib.sha256(b"".join(times.tobytes() + unfinished.tobytes()
                                                for times, _, unfinished in blocks)).hexdigest(),
    }


def child_endpoint_ladder() -> dict:
    rep, res = _walk_case(lambda w, harness, vw: harness.endpoint_law(harness.EndpointConfig(
        weight=w.spec(), n_ladder=ENDPOINT_LADDER, replicas=ENDPOINT_REPLICAS, threads=2)))
    first = [[r for r in rep.tables[t] if r["n"] == ENDPOINT_LADDER[0]] for t in ("endpoint", "endpoint_hist")]
    return {**res, "first_point_sha256": hashlib.sha256(json.dumps(first).encode()).hexdigest()}


def _timed_sampler():
    """An exp:1 sampler whose MarginalTable.draw calls are timed and counted."""
    from srrw.rayknight import RayKnightSampler
    from srrw.weights import WeightFunction

    sampler = RayKnightSampler(WeightFunction("exponential", (1.0,)))
    draw = sampler.table.draw
    timer = {"draw_s": 0.0, "draws": 0}

    def timed_draw(idx, rng):
        t0 = time.perf_counter()
        out = draw(idx, rng)
        timer["draw_s"] += time.perf_counter() - t0
        timer["draws"] += len(idx)
        return out

    sampler.table.draw = timed_draw
    return sampler, timer


def _minflt() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child_rayknight() -> dict:
    from srrw.harness import substream

    sampler, timer = _timed_sampler()
    f0, t0 = _minflt(), time.perf_counter()
    totals = [sampler.batch_total_time(-1, m, RK_REPLICAS, substream(1, m)) for m in RK_LEVELS]
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "minflt": _minflt() - f0,
        "profiles_per_s": RK_REPLICAS * len(RK_LEVELS) / wall,
        **timer,
        "draws_per_s": timer["draws"] / timer["draw_s"],
        "totals_sha256": hashlib.sha256(b"".join(t.tobytes() for t in totals)).hexdigest(),
    }


def child_tails() -> dict:
    from srrw.harness import substream

    sampler, timer = _timed_sampler()
    g_m = math.log(TAIL_M) ** 2  # the tail campaign's growth function
    f0, t0 = _minflt(), time.perf_counter()
    events = sampler.batch_tail_events(TAIL_M, TAIL_REPLICAS, substream(1, TAIL_M), g_m)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "minflt": _minflt() - f0,
        **timer,
        "draws_per_s": timer["draws"] / timer["draw_s"],
        "events_sha256": hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest(),
    }


def child_stationary() -> dict:
    from srrw.eta import EtaKernel, marginal_law_table, stationary_distribution
    from srrw.weights import WeightFunction

    w = WeightFunction("exponential", (1.0,))
    stationary_s = table_s = 0.0
    for _ in range(ETA_BUILDS):
        kernel = EtaKernel(w)
        t0 = time.perf_counter()
        st = stationary_distribution(kernel, ETA_WINDOW)
        t1 = time.perf_counter()
        table = marginal_law_table(kernel, stationary=st)  # on the window of st
        stationary_s += t1 - t0
        table_s += time.perf_counter() - t1
    return {
        "wall_s": (stationary_s + table_s) / ETA_BUILDS,
        "stationary_s": stationary_s / ETA_BUILDS,
        "table_s": table_s / ETA_BUILDS,
        "iterations": st.iterations,
        "rows": table.j_star + 1,
        "laws_sha256": hashlib.sha256(st.nu.probs.tobytes() + table.cdfs.tobytes()).hexdigest(),
    }


def child_eta_chain() -> dict:
    from srrw.eta import EtaKernel, sample_eta_chain
    from srrw.harness import substream
    from srrw.weights import WeightFunction

    kernel = EtaKernel(WeightFunction("exponential", (1.0,)))
    t0 = time.perf_counter()
    seq = sample_eta_chain(kernel, ETA_CHAIN_STEPS, substream(1, 0))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "steps_per_s": ETA_CHAIN_STEPS / wall,
        "values_sha256": hashlib.sha256(seq.values.tobytes()).hexdigest(),
    }


def child_dp(N: int, save: str | None = None) -> dict:
    import resource

    import numpy as np

    from srrw.lclt import exact_bivariate_pmf, stationary_step_law
    from srrw.weights import WeightFunction

    law = stationary_step_law(WeightFunction("exponential", (1.0,)))
    # ru_maxrss is a high-water mark; the imports set the one the DP starts from
    base_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    pmf = exact_bivariate_pmf(law, N)
    wall = time.perf_counter() - t0
    alo, ahi, blo, bhi = pmf.box
    # computed, not counted: step-law atoms x DP steps x final box cells
    cells = int((law.probs > 0).sum()) * N * (ahi - alo) * (bhi - blo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if save:
        np.save(save, pmf.occupied())
    return {
        "wall_s": wall,
        "cells": cells,
        "cells_per_s": cells / wall,
        "base_rss_mb": base_rss_mb,
        "peak_rss_mb": peak_rss_mb,
        "dp_rss_mb": peak_rss_mb - base_rss_mb,
        "truncated_mass": pmf.truncated_mass,
        "box": list(pmf.box),
    }


def child_lclt() -> dict:
    from srrw.cli import main

    with tempfile.TemporaryDirectory(prefix="srrw-bench-lclt-") as out:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the child's JSON
            code = main(["lclt", "--N", str(LCLT_N), "--out", out])
        wall = time.perf_counter() - t0
        digests = {f"{name}_sha256": hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
                   for name in ("lclt.json", "lclt_grid.csv")}
    return {"wall_s": wall, "exit_code": code, **digests}


def _vmhwm_mb() -> float:
    """This process's peak RSS; unlike ru_maxrss it holds nothing from before exec."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def child_profile_cli() -> dict:
    import csv

    from srrw.cli import main

    base = _vmhwm_mb()
    with tempfile.TemporaryDirectory(prefix="srrw-bench-profile-") as out:
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the child's JSON
            code = main(["profile", *PROFILE_ARGS, "--out", out])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        peak = _vmhwm_mb()
        with open(Path(out) / "profile.csv", newline="") as fh:
            cols = [[r["y"], r["mean"], r["zero_frac"]] for r in csv.DictReader(fh)]
    return {"wall_s": wall, "cpu_s": cpu, "exit_code": code, "peak_rss_mb": peak, "profile_rss_mb": peak - base,
            "y_mean_zero_frac_sha256": hashlib.sha256(json.dumps(cols).encode()).hexdigest()}


def child_profile_shape() -> dict:
    from srrw.harness import ProfileShapeConfig, profile_shape

    t0, c0 = time.perf_counter(), time.process_time()
    rep = profile_shape(ProfileShapeConfig(replicas=PROFILE_SHAPE_REPLICAS))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    first = rep.tables["profile_shape"][0]
    return {"wall_s": wall, "cpu_s": cpu, "first_row_sha256": hashlib.sha256(json.dumps(first).encode()).hexdigest()}


def dp_agreement(saved: dict) -> dict:
    """Per N: each tree's box and truncated_mass, and the largest absolute
    cell difference between the trees' saved boxes (None if the boxes differ)."""
    import numpy as np

    out = {}
    for n in SIZES:
        runs = {label: saved[label][n] for label in saved}
        arrs = {label: np.load(r["path"]) for label, r in runs.items()}
        same = len({tuple(r["box"]) for r in runs.values()}) == 1
        first, *rest = arrs.values()
        out[str(n)] = {
            "box": {label: r["box"] for label, r in runs.items()},
            "truncated_mass": {label: r["truncated_mass"] for label, r in runs.items()},
            "box_equal": same,
            "max_abs_cell_diff": max((float(np.abs(a - first).max()) for a in rest), default=0.0) if same else None,
        }
    return out


def measure(tree: Path, what: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, __file__, "--child", *what], env=env,
                          capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout)
    if Path(res.pop("srrw_file")).resolve().parent != tree / "src" / "srrw":
        raise RuntimeError(f"srrw was not imported from {tree / 'src'}")
    return res


def tree_id(tree: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout.strip()

    h = hashlib.sha256()
    for f in sorted((tree / "src").rglob("*.py")):
        h.update(f.relative_to(tree).as_posix().encode() + b"\0" + f.read_bytes())
    return {"commit": git("rev-parse", "HEAD") or None, "dirty": bool(git("status", "--porcelain", "--", "src")),
            "src_sha256": h.hexdigest()}


def summary(samples: list) -> dict:
    out = {"samples": samples}
    for key in samples[0]:
        vals = [s[key] for s in samples]
        numeric = isinstance(vals[0], (int, float)) and not isinstance(vals[0], bool)
        out[key] = statistics.median(vals) if numeric else vals[0]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", type=Path, default=None, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, help="JSON report to write (required)")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        if args.child[0] == "import":
            res = child_import()
        elif args.child[0] == "walk":
            res = child_walk()
        elif args.child[0] == "walk2":
            res = child_walk2()
        elif args.child[0] == "edge":
            res = child_edge()
        elif args.child[0] == "edge2":
            res = child_edge2()
        elif args.child[0] == "endpoint_ladder":
            res = child_endpoint_ladder()
        elif args.child[0] == "rayknight":
            res = child_rayknight()
        elif args.child[0] == "tails":
            res = child_tails()
        elif args.child[0] == "stationary":
            res = child_stationary()
        elif args.child[0] == "eta_chain":
            res = child_eta_chain()
        elif args.child[0] == "lclt":
            res = child_lclt()
        elif args.child[0] == "profile_cli":
            res = child_profile_cli()
        elif args.child[0] == "profile_shape":
            res = child_profile_shape()
        else:
            res = child_dp(int(args.child[1]), *args.child[2:])
        import srrw

        print(json.dumps({**res, "srrw_file": srrw.__file__}))
        return 0
    if args.out is None:
        ap.error("--out is required")

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"parent": args.baseline.resolve(), **trees}
    cases = [["import"], ["walk"], ["walk2"], ["edge"], ["edge2"], ["endpoint_ladder"], ["rayknight"], ["tails"],
             ["stationary"], ["eta_chain"], ["lclt"], ["profile_cli"], ["profile_shape"]]
    cases += [["dp", str(n)] for n in SIZES]
    samples = {label: {" ".join(c): [] for c in cases} for label in trees}
    saved = {label: {} for label in trees}
    with tempfile.TemporaryDirectory(prefix="srrw-bench-") as scratch:
        for rep in range(REPEATS):
            order = list(trees) if rep % 2 == 0 else list(trees)[::-1]
            for case in cases:
                for label in order:
                    # the first DP run of each tree saves its box for dp_agreement
                    save = [str(Path(scratch) / f"{label}-{case[1]}.npy")] if case[0] == "dp" and rep == 0 else []
                    res = measure(trees[label], case + save)
                    samples[label][" ".join(case)].append(res)
                    if save:
                        saved[label][int(case[1])] = {**res, "path": save[0]}
                    print(f"[{rep}] {label:6s} {' '.join(case):8s} {res['wall_s']:8.3f} s", file=sys.stderr)
        agreement = dp_agreement(saved)

    runs = {}
    for label, tree in trees.items():
        runs[label] = {
            **tree_id(tree),
            "import_srrw_cli": summary(samples[label]["import"]),
            "final_positions": summary(samples[label]["walk"]),
            "final_positions_2threads": summary(samples[label]["walk2"]),
            "edge_hit_times": summary(samples[label]["edge"]),
            "edge_hit_times_2threads": summary(samples[label]["edge2"]),
            "endpoint_law_ladder": summary(samples[label]["endpoint_ladder"]),
            "batch_total_time": summary(samples[label]["rayknight"]),
            "batch_tail_events": summary(samples[label]["tails"]),
            "stationary_and_table": summary(samples[label]["stationary"]),
            "sample_eta_chain": summary(samples[label]["eta_chain"]),
            "exact_bivariate_pmf": {str(n): summary(samples[label][f"dp {n}"]) for n in SIZES},
            "cli_lclt": summary(samples[label]["lclt"]),
            "cli_profile": summary(samples[label]["profile_cli"]),
            "profile_shape": summary(samples[label]["profile_shape"]),
        }
    report = {
        "machine": {"cpu_count": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy")},
        "repeats": REPEATS,
        "walk": {"replicas": WALK_REPLICAS, "steps": WALK_STEPS, "threads": 1},
        "walk2": {"blocks": 2, "replicas_per_block": WALK_REPLICAS, "steps": WALK_STEPS, "threads": 2},
        "edge": {"replicas": WALK_REPLICAS, "edge_site": EDGE_SITE, "levels": list(RK_LEVELS),
                 "t_cap": EDGE_T_CAP, "threads": 1},
        "edge2": {"blocks": 2, "replicas_per_block": WALK_REPLICAS, "edge_site": EDGE_SITE, "levels": list(RK_LEVELS),
                  "t_cap": EDGE_T_CAP, "threads": 2},
        "endpoint_ladder": {"n_ladder": list(ENDPOINT_LADDER), "replicas": ENDPOINT_REPLICAS, "threads": 2},
        "rayknight": {"replicas": RK_REPLICAS, "x": -1, "m_levels": list(RK_LEVELS), "threads": 1},
        "tails": {"replicas": TAIL_REPLICAS, "m": TAIL_M, "growth": "log2", "threads": 1},
        "stationary": {"w": "exp:1", "window": list(ETA_WINDOW), "builds": ETA_BUILDS},
        "eta_chain": {"w": "exp:1", "steps": ETA_CHAIN_STEPS, "start": 0},
        "cli_lclt": {"N": LCLT_N, "w": "exp:1"},
        "cli_profile": {"args": PROFILE_ARGS, "threads": 1},
        "profile_shape": {"k_ladder": "default", "replicas": PROFILE_SHAPE_REPLICAS, "threads": 1},
        "runs": runs,
        "dp_agreement": agreement,
    }
    if "parent" in runs:
        names = {("import", "wall_s"): "import_srrw_cli",
                 ("walk", "wall_s"): f"final_positions_R{WALK_REPLICAS}_T{WALK_STEPS}",
                 ("walk", "peak_rss_mb"): "final_positions_peak_rss",
                 ("walk2", "wall_s"): f"final_positions_2threads_R{2 * WALK_REPLICAS}_T{WALK_STEPS}",
                 ("walk2", "cpu_s"): "final_positions_2threads_cpu",
                 ("walk2", "peak_rss_mb"): "final_positions_2threads_peak_rss",
                 ("edge", "wall_s"): f"edge_hit_times_R{WALK_REPLICAS}_T{EDGE_T_CAP}",
                 ("edge", "peak_rss_mb"): "edge_hit_times_peak_rss",
                 ("edge2", "wall_s"): f"edge_hit_times_2threads_R{2 * WALK_REPLICAS}_T{EDGE_T_CAP}",
                 ("edge2", "cpu_s"): "edge_hit_times_2threads_cpu",
                 ("edge2", "peak_rss_mb"): "edge_hit_times_2threads_peak_rss",
                 ("endpoint_ladder", "wall_s"): f"endpoint_law_R{ENDPOINT_REPLICAS}_n{'_'.join(map(str, ENDPOINT_LADDER))}",
                 ("endpoint_ladder", "cpu_s"): "endpoint_law_cpu",
                 ("rayknight", "wall_s"): f"batch_total_time_R{RK_REPLICAS}",
                 ("rayknight", "draw_s"): "MarginalTable.draw",
                 ("rayknight", "minflt"): "batch_total_time_minflt",
                 ("tails", "minflt"): "batch_tail_events_minflt",
                 ("tails", "wall_s"): f"batch_tail_events_m{TAIL_M}_R{TAIL_REPLICAS}",
                 ("stationary", "stationary_s"): "stationary_distribution",
                 ("stationary", "table_s"): "marginal_law_table",
                 ("eta_chain", "wall_s"): f"sample_eta_chain_T{ETA_CHAIN_STEPS}",
                 ("lclt", "wall_s"): f"cli_lclt_N{LCLT_N}",
                 ("profile_cli", "wall_s"): "cli_profile_m1600_R2000",
                 ("profile_cli", "cpu_s"): "cli_profile_cpu",
                 ("profile_cli", "peak_rss_mb"): "cli_profile_peak_rss",
                 ("profile_shape", "wall_s"): f"profile_shape_R{PROFILE_SHAPE_REPLICAS}",
                 ("profile_shape", "cpu_s"): "profile_shape_cpu",
                 **{(f"dp {n}", "wall_s"): f"exact_bivariate_pmf_N{n}" for n in SIZES}}
        # median of the parent's time (or RSS) over the change's, and each pair's own ratio
        report["speedup"] = {}
        report["pair_speedups"] = {}
        for (case, key), name in names.items():
            par = [s[key] for s in samples["parent"][case]]
            chg = [s[key] for s in samples["change"][case]]
            report["speedup"][name] = statistics.median(par) / statistics.median(chg)
            report["pair_speedups"][name] = [a / b for a, b in zip(par, chg)]
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report.get("speedup", {}), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
