"""Run manifests and campaign reports with deterministic serialization.

Result files (JSON + CSV) are byte-stable: fixed column orders, shortest
round-trip float formatting, sorted JSON keys.  Wall-clock time lives only
in the manifest, so re-running a manifest reproduces result files exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_MANIFEST = "srrw.manifest/1"
SCHEMA_RESULTS = "srrw.results/1"

# fixed column order per table; schema version SCHEMA_RESULTS
TABLE_COLUMNS = {
    "endpoint": ["n", "replicas", "ks", "mean_scaled", "se_mean"],
    "endpoint_hist": ["n", "x", "count"],
    "lclt_table": ["n", "x", "hits", "n_phat", "se", "flag"],
    "profile_shape": ["k", "replicas", "median_dev", "p95_dev"],
    "tails": ["m", "event", "threshold", "hits", "replicas", "freq", "se", "upper95"],
    "tail_cross": ["m", "statistic", "walk_value", "walk_se", "rk_value", "rk_se"],
    "inverse_time": ["n", "x", "m", "c", "hits", "replicas", "scaled", "se_scaled", "predicted"],
    "inverse_time_cross": ["n", "x", "m", "c", "walk_freq", "walk_se", "rk_freq", "rk_se"],
    "riemann": ["n", "x", "K", "value", "abs_error"],
    "wterms": ["n", "k", "m", "threshold", "hits", "replicas", "freq", "se", "upper95"],
    "lclt_grid": ["a", "b", "exact", "predicted", "scaled_error"],
    "localtimes": ["x", "l_plus", "l_minus"],
    "walk_summary": ["steps", "final_position", "rho", "lam"],
    "profile": ["y", "mean", "se", "zero_frac"],
    "stationary_law": ["eta", "nu_prob", "r_value", "r_prob"],
}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # numpy 2 spells a float64's repr with its type name
    return str(v)


def write_csv(path, table_name: str, rows) -> None:
    """Write a table of TABLE_COLUMNS: rows are dicts keyed by column, or one
    str of lines already formatted the way _fmt would."""
    cols = TABLE_COLUMNS[table_name]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        if isinstance(rows, str):
            fh.write(rows)
            return
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in cols])


def dump_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # a comparison of numpy scalars yields numpy.bool_, which json cannot write
        self.passed = bool(self.passed)


@dataclass
class StatsReport:
    """Estimates, per-point standard errors and pass/fail checks for one campaign."""

    kind: str
    config: dict
    tables: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    replicas_total: int = 0

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_RESULTS,
            "kind": self.kind,
            "config": self.config,
            "tables": self.tables,
            "checks": [asdict(c) for c in self.checks],
            "replicas_total": self.replicas_total,
            "passed": self.passed(),
        }

    def write_outputs(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = []
        results = outdir / "results.json"
        dump_json(results, self.to_json_dict())
        paths.append(str(results))
        for name, rows in self.tables.items():
            p = outdir / f"{name}.csv"
            write_csv(p, name, rows)
            paths.append(str(p))
        return paths


def code_version() -> dict:
    """The code and libraries a run used: the srrw and numpy versions (the
    Philox streams belong to numpy), the BLAS numpy links (the exact DP's last
    bits depend on its kernels) and the git commit when srrw runs from a
    checkout.  Manifest-only: result files must not depend on it."""
    from . import __version__

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    root = Path(__file__).resolve().parents[2]
    commit = None
    if (root / ".git").exists():
        import subprocess  # about 0.5 MB of modules, paid only in a checkout

        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"srrw": __version__, "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}, "git_commit": commit}


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    master_seed: int
    code_version: dict
    outputs: list = field(default_factory=list)
    wall_clock_s: float | None = None
    error: str | None = None  # the SrrwError that ended a failed run
    schema: str = SCHEMA_MANIFEST

    def write(self, path) -> None:
        dump_json(path, asdict(self))

    @staticmethod
    def load(path) -> "RunManifest":
        with open(path) as fh:
            d = json.load(fh)
        schema = d.pop("schema", SCHEMA_MANIFEST)
        return RunManifest(schema=schema, **d)
