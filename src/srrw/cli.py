"""Command-line front end: reproducible experiments with manifest + CSV/JSON output.

Exit codes: 0 pass, 1 declared tolerance failed, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CampaignConfigError, InvalidWeightError, SrrwError
from .eta import EtaKernel, stationary_distribution
from .harness import CONFIG_KINDS, DEFAULT_BLOCK, config_from_dict, map_blocks, mean_se, run_campaign, substream
from .lclt import conditional_sup_error, exact_bivariate_pmf, lclt_sup_error, limit_exponent, limit_scale, stationary_step_law
from .rayknight import RayKnightSampler
from .reporting import RunManifest, code_version, dump_json, write_csv
from .walk import range_extremes, simulate_walk
from .weights import WeightFunction

USAGE_ERROR = 2
TOLERANCE_ERROR = 1

# per command, the bounds each argument must satisfy; checked before anything is written
ARG_RANGES = {
    "simulate": [("steps", ">=", 0), ("seed", ">=", 0)],
    "stationary": [("window", ">=", 1)],
    "profile": [("m", ">=", 1), ("replicas", ">=", 1), ("threads", ">=", 1), ("seed", ">=", 0)],
    "lclt": [("N", ">=", 1), ("box", ">", 0), ("box", "<", math.inf)],
}
_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


def _weight(text: str) -> WeightFunction:
    try:
        return WeightFunction.parse(text)
    except InvalidWeightError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _start(args, config: dict, seed) -> Path:
    """Create the output directory and write the manifest of a started run;
    _finish completes it, and main() records an SrrwError raised in between."""
    outdir = Path(args.out or f"srrw-out-{time.strftime('%Y%m%d-%H%M%S')}")
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(args.command, config, seed, code_version())
    manifest.write(outdir / "manifest.json")
    args.started = (manifest, outdir, time.perf_counter())
    return outdir


def _finish(args, outputs=(), error: SrrwError | None = None) -> None:
    """Record a started run's outputs and wall time, or the error that ended it."""
    manifest, outdir, t0 = args.started
    if error is None:
        manifest.outputs = [str(o) for o in outputs]
        manifest.wall_clock_s = time.perf_counter() - t0
    else:
        manifest.error = str(error)
    manifest.write(outdir / "manifest.json")


def cmd_simulate(args) -> int:
    outdir = _start(args, {"w": args.w.spec(), "steps": args.steps, "seed": args.seed}, args.seed)
    t = simulate_walk(args.w, args.steps, substream(args.seed, 0))
    rho, lam = range_extremes(t, len(t))
    rows = [
        {"x": x, "l_plus": t.localtimes.l_plus(x), "l_minus": t.localtimes.l_minus(x)}
        for x in t.localtimes.visited_sites()
    ]
    lt_path = outdir / "localtimes.csv"
    write_csv(lt_path, "localtimes", rows)
    summary_path = outdir / "walk_summary.csv"
    write_csv(summary_path, "walk_summary", [{
        "steps": args.steps,
        "final_position": int(t.positions[-1]),
        "rho": "" if rho is None else rho,
        "lam": "" if lam is None else lam,
    }])
    _finish(args, [lt_path, summary_path])
    print(f"simulate: {args.steps} steps, X = {int(t.positions[-1])}, outputs in {outdir}")
    return 0


def cmd_stationary(args) -> int:
    outdir = _start(args, {"w": args.w.spec(), "window": args.window}, args.seed)
    res = stationary_distribution(EtaKernel(args.w), window=(-args.window, args.window))
    rows = [
        {"eta": int(v), "nu_prob": float(p), "r_value": float(v) + 0.5, "r_prob": float(p)}
        for v, p in zip(res.nu.values(), res.nu.probs)
    ]
    law_path = outdir / "stationary_law.csv"
    write_csv(law_path, "stationary_law", rows)
    payload = {
        "mean": res.mean,
        "sigma2": res.sigma2,
        "residual": res.residual,
        "boundary_mass": res.boundary_mass,
        "iterations": res.iterations,
        "window": list(res.window),
        "r_symmetry_defect": res.r_law.symmetry_defect(),
    }
    json_path = outdir / "stationary.json"
    dump_json(json_path, payload)
    _finish(args, [law_path, json_path])
    print(f"stationary: mean {res.mean:.8f}, sigma2 {res.sigma2:.8f}, outputs in {outdir}")
    return 0


def cmd_profile(args) -> int:
    config = {"w": args.w.spec(), "x": args.x, "m": args.m, "replicas": args.replicas, "seed": args.seed}
    outdir = _start(args, config, args.seed)
    sampler = RayKnightSampler(args.w)
    blocks = map_blocks(args.replicas, DEFAULT_BLOCK, args.threads, lambda b, count: sampler.batch_profile_sums(
        args.x, args.m, count, substream(args.seed, 1, b)))
    nonzero, total, squares = (sum(sums, Counter()) for sums in zip(*blocks))  # only the sites with a nonzero sum
    # the window's margin doubles from 64 until both end sites lie past every profile's end
    lo, hi = min(args.x, 0) - 2 * args.m, max(args.x, 0) + 2 * args.m
    margin = 64
    while margin <= max(max(nonzero) - hi, lo - min(nonzero)):
        margin *= 2
    rows = []
    for y in range(lo - margin, hi + margin + 1):
        mean, se = mean_se(args.replicas, total[y], squares[y])
        rows.append({"y": y, "mean": mean, "se": se, "zero_frac": (args.replicas - nonzero[y]) / args.replicas})
    prof_path = outdir / "profile.csv"
    write_csv(prof_path, "profile", rows)
    _finish(args, [prof_path])
    print(f"profile: x={args.x} m={args.m}, {args.replicas} replicas, outputs in {outdir}")
    return 0


def cmd_lclt(args) -> int:
    # target ~50k CSV rows: the full box grid has ~36 N^2 lattice points
    stride = max(1, math.ceil(6 * args.N / 224))
    config = {"w": args.w.spec(), "N": args.N, "box": args.box, "stride": stride}
    outdir = _start(args, config, args.seed)
    step_law = stationary_step_law(args.w)
    pmf = exact_bivariate_pmf(step_law, args.N)
    comparison = lclt_sup_error(pmf, u_max=args.box, v_max=args.box)
    cond_sup, cond_arg = conditional_sup_error(pmf)
    s2 = pmf.sigma2
    scale = limit_scale(s2, args.N)
    # lclt_grid.csv rows as _fmt would write them: numpy does the float arithmetic in
    # the same order as Python, math.exp the exponential (np.exp may differ in the last ulp)
    lines = []
    sqn, n32 = math.sqrt(args.N), args.N**1.5
    alo, _, blo, bhi = pmf.box
    bt = pmf.bt_values()[::stride]
    for ia, a in enumerate(pmf.a_values().tolist()):
        u = a / sqn
        if ia % stride or abs(u) > args.box:
            continue
        b = bt + pmf.c * a
        v = b / n32
        keep = np.abs(v) <= args.box
        b, v = b[keep], v[keep]
        exact = pmf.arr[alo + ia, blo:bhi][::stride][keep]
        pred = [math.exp(-x) for x in limit_exponent(u, v, s2).tolist()]
        err = np.abs(scale * exact - np.array(pred))
        lines += [f"{a!r},{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r}\n"
                  for r in zip(b.tolist(), exact.tolist(), pred, err.tolist())]
    grid_path = outdir / "lclt_grid.csv"
    write_csv(grid_path, "lclt_grid", "".join(lines))
    payload = {
        "N": args.N,
        "sigma2": s2,
        "sup_scaled_error": comparison.sup_scaled_error,
        "sup_argmax": list(comparison.argmax),
        "conditional_sup_error": cond_sup,
        "conditional_argmax": list(cond_arg),
        "truncated_mass": pmf.truncated_mass,
        "total_mass": pmf.total_mass(),
    }
    json_path = outdir / "lclt.json"
    dump_json(json_path, payload)
    _finish(args, [grid_path, json_path])
    print(f"lclt: N={args.N} sup_scaled_error={comparison.sup_scaled_error:.4f}, outputs in {outdir}")
    if args.max_sup is not None and comparison.sup_scaled_error >= args.max_sup:
        return TOLERANCE_ERROR
    return 0


def cmd_campaign(args) -> int:
    # one merge for a fresh run and a re-run: the --manifest or --config object, then the flags
    flag, path = ("--manifest", args.manifest) if args.manifest else ("--config", args.config)
    cfg_dict = {}
    if path:
        try:
            loaded = RunManifest.load(path).config if args.manifest else json.loads(Path(path).read_text())
            cfg_dict = {**loaded}  # a TypeError unless it is a JSON object
        except (OSError, ValueError, TypeError) as exc:
            raise CampaignConfigError(f"cannot read {flag} {path!r}: {exc}") from exc
    overrides = {"kind": args.kind and args.kind.replace("-", "_"), "weight": args.w and args.w.spec(),
                 "master_seed": args.seed, "threads": args.threads, "replicas": args.replicas}
    cfg_dict.update((key, val) for key, val in overrides.items() if val is not None)
    for kv in args.param or ():
        key, _, val = kv.partition("=")
        try:
            cfg_dict[key] = json.loads(val)
        except json.JSONDecodeError as exc:
            raise CampaignConfigError(f"--param {kv!r} is not KEY=JSON: {exc}") from exc
    cfg = config_from_dict(cfg_dict)
    outdir = _start(args, cfg.to_dict(), cfg.master_seed)
    report = run_campaign(cfg)
    _finish(args, report.write_outputs(outdir))
    for c in report.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    print(f"campaign {cfg.kind}: outputs in {outdir}")
    return 0 if report.passed() else TOLERANCE_ERROR


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="srrw", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=0):
        sp.add_argument("--out", default=None, help="output directory (default: timestamped)")
        sp.add_argument("--seed", type=int, default=seed_default)

    sp = sub.add_parser("simulate", help="simulate one walk, dump local times")
    sp.add_argument("--w", type=_weight, required=True, help="exp:RATE | ramp:SLOPE:FLOOR | table:Z0:v,v,...")
    sp.add_argument("--steps", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("stationary", help="stationary law of the embedded chain")
    sp.add_argument("--w", type=_weight, required=True)
    sp.add_argument("--window", type=int, default=40)
    common(sp)
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("profile", help="profile sampler summary at an inverse local time")
    sp.add_argument("--w", type=_weight, required=True)
    sp.add_argument("--x", type=int, default=0)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--replicas", type=int, default=10_000)
    sp.add_argument("--threads", type=int, default=1, help="worker threads")
    common(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("lclt", help="exact bivariate local-CLT comparison")
    sp.add_argument("--w", type=_weight, default=WeightFunction("exponential", (1.0,)))
    sp.add_argument("--N", type=int, default=100)
    sp.add_argument("--box", type=float, default=3.0)
    sp.add_argument("--max-sup", type=float, default=None, help="fail (exit 1) if sup error exceeds this")
    common(sp)
    sp.set_defaults(func=cmd_lclt)

    sp = sub.add_parser("campaign", help="run a Monte Carlo verification campaign")
    sp.add_argument("--kind", choices=[kind.replace("_", "-") for kind in CONFIG_KINDS], default=None)
    sp.add_argument("--w", type=_weight, default=None)
    sp.add_argument("--replicas", type=int, default=None)
    base = sp.add_mutually_exclusive_group()
    base.add_argument("--config", default=None, help="JSON config file (flags win)")
    base.add_argument("--manifest", default=None, help="re-run a previous campaign manifest (flags win)")
    sp.add_argument("--param", action="append", default=None, metavar="KEY=JSON",
                    help="extra config field, e.g. --param n_ladder=[50,100]")
    sp.add_argument("--threads", type=int, default=None, help="worker threads (default: the config's)")
    common(sp, seed_default=None)  # default: the config's
    sp.set_defaults(func=cmd_campaign)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, op, bound in ARG_RANGES.get(args.command, ()):
        if not _OPS[op](getattr(args, name), bound):  # a NaN --box fails too
            print(f"error: --{name} {getattr(args, name)} must be {op} {bound}", file=sys.stderr)
            return USAGE_ERROR
    try:
        return args.func(args)
    except SrrwError as exc:
        if getattr(args, "started", None):
            _finish(args, error=exc)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
