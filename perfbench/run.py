"""srrw benchmark: one workload, run as fresh `srrw` processes for a fixed time.

    python3 perfbench/run.py --workload endpoint --seed 1 --seconds 30 --trace 0

Each operation is one srrw command line run through srrw.cli.main in a new
process (child.py).  The run first starts PROBES processes that stop at the
first engine call, for set-up time, then repeats whole rounds for
--seconds: one untraced operation per round, or with --trace 1 an
untraced and a traced operation on the same inputs.  After the timed
region it checks every operation's outputs (checks.py) and prints one JSON
line: end-to-end metrics (medians over operations) untraced, per-layer
metrics (medians over traced operations) traced.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PROBES = 3
DEADLINE_S = 150.0  # a run that has not finished its operations by then gives no result
THREADS = 2
WEIGHT = "exp:1"

ENDPOINT_LADDER = (16, 20)
ENDPOINT_REPLICAS = 131072  # two default-size blocks, one per thread
PROBE_K = 12
PROBE_REPLICAS = 200_000
IT_N = 24
IT_REPLICAS = 262144
IT_CROSS_REPLICAS = 131072
LCLT_N = 200


def srrw_args(workload: str, master_seed: int) -> list:
    if workload == "endpoint":
        return ["campaign", "--kind", "endpoint", "--w", WEIGHT, "--seed", str(master_seed),
                "--replicas", str(ENDPOINT_REPLICAS), "--threads", str(THREADS),
                "--param", f"n_ladder={json.dumps(list(ENDPOINT_LADDER))}"]
    if workload == "inverse_time":
        return ["campaign", "--kind", "inverse-time", "--w", WEIGHT, "--seed", str(master_seed),
                "--replicas", str(IT_REPLICAS), "--threads", str(THREADS),
                "--param", f"n={IT_N}", "--param", f"cross_replicas={IT_CROSS_REPLICAS}"]
    # deterministic DP: the seed only reaches the manifest
    return ["lclt", "--w", WEIGHT, "--N", str(LCLT_N), "--seed", str(master_seed)]


WORKLOADS = ("endpoint", "inverse_time", "lclt_exact")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_op(mode: str, args: list, opdir: Path, deadline: float) -> dict:
    """One srrw process; returns its parent-side start time and its sidecar."""
    opdir.mkdir(parents=True)
    sidecar = opdir / "sidecar.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(sidecar), "--", *args, "--out", str(opdir)]
    with open(opdir / "stdout.txt", "wb") as so, open(opdir / "stderr.txt", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(deadline - t0, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} operation still running at the {DEADLINE_S} s deadline: {' '.join(args)}")
    side = None
    if sidecar.exists():
        with open(sidecar) as fh:
            side = json.load(fh)
    if side is None or side["t_first_engine"] is None:
        err = (opdir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"{mode} process exited {rc} before any engine call:\n{err}")
    side.update(t_spawn=t0, exit_code=rc, dir=opdir)
    return side


def failed(op: dict) -> bool:
    """An operation fails when srrw raised or exited with a usage error.

    Exit code 1 with no exception is srrw's own statistical verdict (a
    declared tolerance missed); the run completed and is checked here.
    """
    return op["exception"] is not None or op["rc"] not in (0, 1)


def check_run(workload: str, ops: list, seed: int) -> list:
    sigma2 = reference.stationary_sigma2()
    dirs = [op["dir"] for op in ops]
    if workload == "endpoint":
        return checks.endpoint_outputs(dirs, ENDPOINT_LADDER, ENDPOINT_REPLICAS) + endpoint_probe(seed)
    if workload == "inverse_time":
        reports = []
        for d in dirs:
            with open(d / "capture_report.json") as fh:
                reports.append(json.load(fh))
        with open(SRC / "srrw" / "expectations.json") as fh:
            band = json.load(fh)["inverse_time_scaled_band_c0"]
        return checks.inverse_time_outputs(reports, IT_N, IT_REPLICAS, IT_CROSS_REPLICAS, sigma2, band)
    return [c for d in dirs for c in checks.lclt_outputs(*checks.load_lclt(d), sigma2)]


def endpoint_probe(seed: int) -> list:
    """final_positions against the exact law of X(k), k <= PROBE_K."""
    sys.path.insert(0, str(SRC))
    from srrw.vectorwalk import final_positions
    from srrw.weights import WeightFunction

    snaps = final_positions(WeightFunction.parse(WEIGHT), PROBE_K, PROBE_REPLICAS,
                            np.random.SeedSequence(seed, spawn_key=(7, 7)),
                            snapshots=range(1, PROBE_K + 1))[3]
    return checks.position_law_chi2(reference.exact_position_laws(PROBE_K), snaps)


def median(values) -> float:
    return float(statistics.median(values))


def bench(workload: str, seed: int, seconds: int, trace: bool, rundir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    probes = [] if trace else [run_op("probe", srrw_args(workload, seed * 1000), rundir / f"probe{i}", deadline)
                               for i in range(PROBES)]
    rounds = []
    t_begin = time.monotonic()
    last = 0.0
    # start another round only if it should end within the window, so a run
    # lasts about `seconds` however slow the machine is
    while not rounds or time.monotonic() - t_begin + last <= seconds:
        t_round = time.monotonic()
        r = len(rounds)
        args = srrw_args(workload, seed * 1000 + r)
        ops = [run_op("run", args, rundir / f"run{r}", deadline)]
        if trace:
            ops.append(run_op("trace", args, rundir / f"trace{r}", deadline))
        rounds.append(ops)
        last = time.monotonic() - t_round
    ops = [op for rnd in rounds for op in rnd]

    results = check_run(workload, ops, seed)
    for name, ok, detail in results:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    n_failed = sum(failed(op) for op in ops)
    for why in sorted({op["exception"] or f"exit {op['rc']}" for op in ops if failed(op)}):
        print(f"{workload}: failed operation: {why}", file=sys.stderr)

    untraced = [rnd[0] for rnd in rounds]
    walls = [op["t_main_end"] - op["t_spawn"] for op in untraced]
    for r, op in enumerate(ops):
        print(f"{workload} op {r} {op['dir'].name}: wall {op['t_main_end'] - op['t_spawn']:.3f} s, "
              f"cpu {op['cpu_s']:.3f} s, setup {op['t_first_engine'] - op['t_spawn']:.3f} s", file=sys.stderr)
    if trace:
        traced = [rnd[1] for rnd in rounds]
        per_op = [layers.layer_metrics(op["spans"]) for op in traced]
        values = {k: median([m[k] for m in per_op]) for k in per_op[0]}
        values["trace.overhead_s"] = median(op["t_main_end"] - op["t_spawn"] for op in traced) - median(walls)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in layers.PER_LAYER.items()}
    else:
        setups = [op["t_first_engine"] - op["t_spawn"] for op in probes + untraced]
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "cpu_s": {"value": median(op["cpu_s"] for op in untraced), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(op["maxrss_kb"] / 1024.0 for op in untraced), "unit": "MB"},
        }
    return {
        "correct": all(ok for _, ok, _ in results),
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "srrw" / "__init__.py").is_file():
        print(f"no srrw sources under {SRC}", file=sys.stderr)
        return 2
    rundir = OUT / f"{a.workload}-s{a.seed}-t{a.trace}-{time.time_ns()}"
    try:
        result = bench(a.workload, a.seed, a.seconds, bool(a.trace), rundir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{a.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
