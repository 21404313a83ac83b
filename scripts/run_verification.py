#!/usr/bin/env python3
"""Run the standard verification campaigns and write their reports.

A lighter-weight mirror of the acceptance suite, useful for exploring other
weights or scales:

    python scripts/run_verification.py --out runs/verify --seed 1 --scale 0.2

Each campaign runs through `srrw campaign` with its default configuration,
its replica counts multiplied by --scale, into OUT/<kind>.
"""

import argparse
import json
import sys
from pathlib import Path

from srrw import cli
from srrw.harness import CONFIG_KINDS

# the replica-count fields --scale multiplies, with the least count each keeps
SCALED = {
    "endpoint": {"replicas": 1000},
    "lclt_table": {"replicas": 10_000},
    "profile_shape": {"replicas": 40},
    "tails": {"replicas_per_m": 500},
    "inverse_time": {"replicas": 50_000, "cross_replicas": 20_000},
    "wterms": {"replicas": 1000},
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/verification")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--w", default="exp:1.0")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="replica multiplier (use < 1 for a quick pass)")
    args = ap.parse_args()

    failed = []
    for kind, floors in SCALED.items():
        argv = ["campaign", "--kind", kind.replace("_", "-"), "--w", args.w, "--seed", str(args.seed),
                "--threads", str(args.threads), "--out", str(Path(args.out) / kind)]
        for name, floor in floors.items():
            default = getattr(CONFIG_KINDS[kind], name)
            scaled = [max(int(r * args.scale), floor) for r in default] if isinstance(default, tuple) \
                else max(int(default * args.scale), floor)
            argv += ["--param", f"{name}={json.dumps(scaled)}"]
        if cli.main(argv) != 0:
            failed.append(kind)
    if failed:
        print("failed campaigns:", failed)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
