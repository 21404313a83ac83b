#!/usr/bin/env python3
"""Run the standard verification campaigns and write their reports.

A lighter-weight mirror of the acceptance suite, useful for exploring other
weights or scales:

    python scripts/run_verification.py --out runs/verify --seed 1 --scale 0.2
"""

import argparse
import sys
import time
from pathlib import Path

import srrw
from srrw.reporting import RunManifest, code_version


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/verification")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--w", default="exp:1.0")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="replica multiplier (use < 1 for a quick pass)")
    args = ap.parse_args()
    w = srrw.WeightFunction.parse(args.w).spec()
    s = args.scale

    campaigns = [
        srrw.EndpointConfig(weight=w, master_seed=args.seed, threads=args.threads,
                            n_ladder=(50, 100, 200), replicas=max(int(100_000 * s), 1000)),
        srrw.LcltTableConfig(weight=w, master_seed=args.seed, threads=args.threads,
                             n=60, replicas=max(int(1_000_000 * s), 10_000), alpha=0.6),
        srrw.ProfileShapeConfig(weight=w, master_seed=args.seed, threads=args.threads,
                                k_ladder=(10_000, 40_000, 160_000), replicas=max(int(200 * s), 40)),
        srrw.TailConfig(weight=w, master_seed=args.seed, threads=args.threads,
                        m_ladder=(1_000, 10_000, 100_000),
                        replicas_per_m=tuple(max(int(r * s), 500) for r in (20_000, 20_000, 4_000))),
        srrw.InverseTimeConfig(weight=w, master_seed=args.seed, threads=args.threads,
                               n=24, replicas=max(int(10_000_000 * s), 50_000),
                               cross_replicas=max(int(1_000_000 * s), 20_000)),
        srrw.WTermsConfig(weight=w, master_seed=args.seed, threads=args.threads,
                          n_ladder=(50, 100, 200), replicas=max(int(20_000 * s), 1000)),
    ]

    root = Path(args.out)
    failed = []
    for cfg in campaigns:
        outdir = root / cfg.kind
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        manifest = RunManifest("campaign", cfg.to_dict(), cfg.master_seed, code_version())
        manifest.write(outdir / "manifest.json")
        report = srrw.run_campaign(cfg)
        manifest.outputs = report.write_outputs(outdir)
        manifest.wall_clock_s = time.perf_counter() - t0
        manifest.write(outdir / "manifest.json")
        status = "PASS" if report.passed() else "FAIL"
        print(f"[{status}] {cfg.kind}: {manifest.wall_clock_s:.1f}s -> {outdir}")
        for c in report.checks:
            if not c.passed:
                print(f"    FAIL {c.name}: {c.detail}")
                failed.append(f"{cfg.kind}.{c.name}")
    if failed:
        print("failed checks:", failed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
