"""Runs one srrw command line in a fresh process and reports what it cost.

    python3 perfbench/child.py MODE SIDECAR -- SRRW_ARGS...

MODE is one of
  run    call srrw.cli.main(SRRW_ARGS) with no tracing; record the time of
         the first engine call, the time main returned, CPU time and peak RSS
  trace  the same, plus a span around every call into the layers listed in
         HOOKS; spans stay in memory until main has returned
  probe  stop the process at the first engine call (set-up time only)

SIDECAR receives one JSON object.  Engine return values that the output
checks need (the exact PMF, the step law, a campaign report whose writer
failed) are saved next to it after main has returned, outside every timing.
Times are time.monotonic() values, comparable with the parent's clock.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _replica_steps(a, out):
    return {"replica_steps": int(a["steps"]) * int(a["replicas"])}


def _useful_hit_steps(a, out):
    last = out[0][:, -1]
    return {"replica_steps": int(last[last >= 0].sum()) + int((last < 0).sum()) * int(a["t_cap"])}


def _draws(a, out):
    return {"draws": len(a["idx"])}


def _profiles(a, out):
    return {"profiles": int(a["replicas"])}


def _iterations(a, out):
    return {"iterations": int(out.iterations)}


def _rows(a, out):
    return {"rows": len(out.cdfs)}


def _dp_cells(a, out):
    # computed, not counted: step-law atoms x DP steps x final box cells
    alo, ahi, blo, bhi = out.box
    atoms = int((out.step_law.probs > 0).sum())
    return {"cells": atoms * int(out.N) * (ahi - alo) * (bhi - blo)}


def _bytes(a, out):
    return {"bytes": os.path.getsize(a["path"])}


def _threads(a, out):
    return {"threads": max(int(a["threads"]), 1)}


# (module, class or None, attribute, span name, attrs from (bound args, result),
#  capture key, entry).  An entry call starts engine work: the first one ends
#  set-up.  Captured results feed the output checks.
HOOKS = [
    ("srrw.cli", None, "main", "cli", None, None, False),
    ("srrw.harness", None, "run_campaign", "harness.run_campaign", None, "report", False),
    ("srrw.harness", None, "map_blocks", "harness.map_blocks", _threads, None, False),
    ("srrw.vectorwalk", None, "final_positions", "vectorwalk.final_positions", _replica_steps, None, True),
    ("srrw.vectorwalk", None, "edge_hit_times", "vectorwalk.edge_hit_times", _useful_hit_steps, None, True),
    ("srrw.rayknight", "RayKnightSampler", "__init__", "rayknight.RayKnightSampler.init", None, None, True),
    ("srrw.rayknight", "RayKnightSampler", "batch_total_time", "rayknight.batch_total_time", _profiles, None, False),
    ("srrw.eta", "MarginalTable", "draw", "eta.MarginalTable.draw", _draws, None, False),
    ("srrw.eta", None, "stationary_distribution", "eta.stationary_distribution", _iterations, "stationary", True),
    ("srrw.eta", None, "marginal_law_table", "eta.marginal_law_table", _rows, None, True),
    ("srrw.lclt", None, "stationary_step_law", "lclt.stationary_step_law", None, "step_law", True),
    ("srrw.lclt", None, "exact_bivariate_pmf", "lclt.exact_bivariate_pmf", _dp_cells, "pmf", True),
    ("srrw.lclt", None, "lclt_sup_error", "lclt.lclt_sup_error", None, None, False),
    ("srrw.lclt", None, "conditional_sup_error", "lclt.conditional_sup_error", None, None, False),
    ("srrw.reporting", "StatsReport", "write_outputs", "reporting.write_outputs", None, None, False),
    ("srrw.reporting", None, "write_csv", "reporting.write_csv", _bytes, None, False),
    ("srrw.reporting", None, "dump_json", "reporting.dump_json", _bytes, None, False),
]


class Recorder:
    """Spans, the first engine call and captured results of one process."""

    def __init__(self, mode: str, sidecar: Path):
        self.mode = mode
        self.sidecar = sidecar
        self.spans: list = []
        self.captured: dict = {}
        self.t_first_engine = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        s = getattr(self._local, "stack", None)
        if s is None:
            s = self._local.stack = []
        return s

    def entered(self) -> None:
        if self.t_first_engine is None:
            self.t_first_engine = time.monotonic()
            if self.mode == "probe":
                write_json(self.sidecar, {"t_first_engine": self.t_first_engine})
                os._exit(0)

    def call(self, name, fn, args, kwargs, extra, parent=None, started=None):
        """Run fn inside a span; parent defaults to this thread's open span."""
        stack = self.stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        if started:
            started(sid)
        stack.append(sid)
        out, done = None, False
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            attrs = extra(args, kwargs, out) if extra and done else {}
            self.spans.append([sid, parent, name, threading.get_ident(), t0, t1, attrs])

    def wrap(self, fn, name, attrs, capture, entry, span):
        rec = self
        bind = _bound(fn) if attrs else None

        def extra(args, kwargs, out):
            return attrs(bind(args, kwargs), out)

        if span and name == "harness.map_blocks":
            # blocks run on pool threads: each gets a span whose parent is
            # the map_blocks call, so the pool's idle time can be measured
            def traced_map_blocks(total, block_size, threads, fn_):
                opened = {}

                def block(b, n):
                    return rec.call("harness.block", fn_, (b, n), {}, None, parent=opened["id"])

                return rec.call(name, fn, (total, block_size, threads, block), {}, extra,
                                started=lambda sid: opened.__setitem__("id", sid))

            return traced_map_blocks

        def wrapper(*args, **kwargs):
            if entry:
                rec.entered()
            out = rec.call(name, fn, args, kwargs, extra if attrs else None) if span else fn(*args, **kwargs)
            if capture:
                rec.captured[capture] = out
            return out

        return wrapper

    def install(self, modules: dict) -> None:
        span = self.mode == "trace"
        for modname, clsname, attr, name, attrs, capture, entry in HOOKS:
            if not (span or capture or entry):
                continue
            if clsname:
                owner = getattr(modules[modname], clsname)
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs, capture, entry, span))
                continue
            original = getattr(modules[modname], attr)
            wrapped = self.wrap(original, name, attrs, capture, entry, span)
            # the function is also bound in every srrw module that imported it
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, default=_plain)


def _plain(v):
    import numpy as np

    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"cannot serialise {type(v).__name__}")


def lclt_capture(pmf, step_law, stationary) -> dict:
    """The parts of an exact PMF run that the lclt output checks read."""
    return dict(
        N=pmf.N, c=pmf.c, a_values=pmf.a_values(), bt_values=pmf.bt_values(),
        occupied=pmf.occupied(), truncated_mass=pmf.truncated_mass,
        step_lo=step_law.lo, step_probs=step_law.probs, step_offset=step_law.offset,
        nu_lo=stationary.nu.lo, nu_probs=stationary.nu.probs,
    )


def save_captures(rec: Recorder, outdir: Path) -> None:
    import numpy as np

    pmf = rec.captured.get("pmf")
    if pmf is not None:
        cap = lclt_capture(pmf, rec.captured["step_law"], rec.captured["stationary"])
        np.savez(outdir / "capture_lclt.npz", **cap)
    report = rec.captured.get("report")
    if report is not None:
        write_json(outdir / "capture_report.json", {"kind": report.kind, "tables": report.tables})


def main(argv) -> int:
    mode, sidecar, sep, *cli_args = argv
    if mode not in ("run", "trace", "probe") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sidecar = Path(sidecar)
    sys.path.insert(0, str(SRC))
    import srrw
    import srrw.cli

    if Path(srrw.__file__).resolve().parent != SRC / "srrw":
        print(f"srrw imported from {srrw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("srrw.")}
    rec = Recorder(mode, sidecar)
    rec.install(modules)
    exception = None
    try:
        rc = srrw.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the console script would die here with a traceback
        traceback.print_exc()
        exception = f"{type(exc).__name__}: {exc}"
        rc = 1
    t_main_end = time.monotonic()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    save_captures(rec, sidecar.parent)
    write_json(sidecar, {
        "t_first_engine": rec.t_first_engine,
        "t_main_end": t_main_end,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kb": ru.ru_maxrss,
        "rc": rc,
        "exception": exception,
        "spans": rec.spans,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
