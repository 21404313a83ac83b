"""Per-layer metrics from the spans of one traced srrw process.

A span is [id, parent, name, thread, t0, t1, attrs].  Busy time sums span
durations over all threads (thread-seconds); a span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

WRITERS = ("reporting.write_outputs", "reporting.write_csv", "reporting.dump_json")

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "vectorwalk.final_positions.busy_s": "s",
    "vectorwalk.final_positions.replica_steps_per_s": "1/s",
    "vectorwalk.edge_hit_times.busy_s": "s",
    "vectorwalk.edge_hit_times.replica_steps_per_s": "1/s",
    "eta.MarginalTable.draw.busy_s": "s",
    "eta.MarginalTable.draw.draws_per_s": "1/s",
    "eta.MarginalTable.draw.calls": "count",
    "rayknight.batch_total_time.busy_s": "s",
    "rayknight.batch_total_time.self_s": "s",
    "rayknight.batch_total_time.profiles_per_s": "1/s",
    "rayknight.RayKnightSampler.init_s": "s",
    "eta.stationary_distribution.busy_s": "s",
    "eta.stationary_distribution.iterations": "count",
    "eta.marginal_law_table.busy_s": "s",
    "eta.marginal_law_table.rows": "count",
    "lclt.stationary_step_law.busy_s": "s",
    "lclt.exact_bivariate_pmf.busy_s": "s",
    "lclt.exact_bivariate_pmf.cells_per_s": "1/s",
    "lclt.lclt_sup_error.busy_s": "s",
    "lclt.conditional_sup_error.busy_s": "s",
    "harness.map_blocks.blocks": "count",
    "harness.map_blocks.idle_s": "s",
    "harness.self_s": "s",
    "reporting.write_outputs.busy_s": "s",
    "reporting.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list) -> dict:
    """Every per-layer metric except trace.overhead_s, from one process's spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)
        by_id[s[0]] = s

    def busy(name):
        return sum(s[5] - s[4] for s in by_name[name])

    def count(name, key):
        return sum(s[6].get(key, 0) for s in by_name[name])

    def self_time(name):
        return sum(s[5] - s[4] - _covered(s[4], s[5], [(c[4], c[5]) for c in children[s[0]]])
                   for s in by_name[name])

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    draw_in_sweep = sum(c[5] - c[4] for s in by_name["rayknight.batch_total_time"]
                        for c in children[s[0]] if c[2] == "eta.MarginalTable.draw")
    idle = sum(s[6].get("threads", 1) * (s[5] - s[4]) - sum(c[5] - c[4] for c in children[s[0]])
               for s in by_name["harness.map_blocks"])
    outermost_writes = [s for name in WRITERS for s in by_name[name]
                        if s[1] not in by_id or by_id[s[1]][2] not in WRITERS]
    return {
        "vectorwalk.final_positions.busy_s": busy("vectorwalk.final_positions"),
        "vectorwalk.final_positions.replica_steps_per_s": rate(
            count("vectorwalk.final_positions", "replica_steps"), busy("vectorwalk.final_positions")),
        "vectorwalk.edge_hit_times.busy_s": busy("vectorwalk.edge_hit_times"),
        "vectorwalk.edge_hit_times.replica_steps_per_s": rate(
            count("vectorwalk.edge_hit_times", "replica_steps"), busy("vectorwalk.edge_hit_times")),
        "eta.MarginalTable.draw.busy_s": busy("eta.MarginalTable.draw"),
        "eta.MarginalTable.draw.draws_per_s": rate(
            count("eta.MarginalTable.draw", "draws"), busy("eta.MarginalTable.draw")),
        "eta.MarginalTable.draw.calls": len(by_name["eta.MarginalTable.draw"]),
        "rayknight.batch_total_time.busy_s": busy("rayknight.batch_total_time"),
        "rayknight.batch_total_time.self_s": busy("rayknight.batch_total_time") - draw_in_sweep,
        "rayknight.batch_total_time.profiles_per_s": rate(
            count("rayknight.batch_total_time", "profiles"), busy("rayknight.batch_total_time")),
        "rayknight.RayKnightSampler.init_s": busy("rayknight.RayKnightSampler.init"),
        "eta.stationary_distribution.busy_s": busy("eta.stationary_distribution"),
        "eta.stationary_distribution.iterations": count("eta.stationary_distribution", "iterations"),
        "eta.marginal_law_table.busy_s": busy("eta.marginal_law_table"),
        "eta.marginal_law_table.rows": count("eta.marginal_law_table", "rows"),
        "lclt.stationary_step_law.busy_s": busy("lclt.stationary_step_law"),
        "lclt.exact_bivariate_pmf.busy_s": busy("lclt.exact_bivariate_pmf"),
        "lclt.exact_bivariate_pmf.cells_per_s": rate(
            count("lclt.exact_bivariate_pmf", "cells"), busy("lclt.exact_bivariate_pmf")),
        "lclt.lclt_sup_error.busy_s": busy("lclt.lclt_sup_error"),
        "lclt.conditional_sup_error.busy_s": busy("lclt.conditional_sup_error"),
        "harness.map_blocks.blocks": len(by_name["harness.block"]),
        "harness.map_blocks.idle_s": idle,
        "harness.self_s": self_time("harness.run_campaign"),
        "reporting.write_outputs.busy_s": sum(s[5] - s[4] for s in outermost_writes),
        "reporting.bytes_written": count("reporting.write_csv", "bytes") + count("reporting.dump_json", "bytes"),
        "cli.self_s": self_time("cli"),
    }
