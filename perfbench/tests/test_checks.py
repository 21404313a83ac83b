"""Each output check passes on srrw's real output and fails on a broken one.

    python3 -m pytest perfbench/tests -q
"""

import copy
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import checks
import child
import layers
import reference
from srrw.harness import EndpointConfig, InverseTimeConfig, endpoint_law, inverse_time_asymptotics
from srrw.lclt import exact_bivariate_pmf, stationary_step_law
from srrw.vectorwalk import final_positions
from srrw.weights import WeightFunction

W = WeightFunction("exponential", (1.0,))
SIGMA2 = reference.stationary_sigma2()


def failing(results):
    return {name for name, ok, _ in results if not ok}


# -- endpoint ---------------------------------------------------------------------


def test_chi2_accepts_the_walk_and_rejects_a_flipped_step_rule():
    k_max = 8
    snaps = final_positions(W, k_max, 50_000, 11, snapshots=range(1, k_max + 1))[3]
    assert not failing(checks.position_law_chi2(reference.exact_position_laws(k_max), snaps))

    def flipped(d):  # one probability flipped: p(1) <-> p(-1)
        return reference.p_right_exp1(-d if abs(d) == 1 else d)

    bad = failing(checks.position_law_chi2(reference.exact_position_laws(k_max, flipped), snaps))
    assert bad and bad <= {f"chi2_X{k}" for k in range(1, k_max + 1)}


def test_exact_law_matches_hand_computation():
    p = reference.p_right_exp1
    law = reference.exact_position_laws(4)
    assert law[1] == {1: 0.5, -1: 0.5}
    # the four paths with three right steps, summed by hand
    by_hand = (0.5 * 0.5 * p(-1) * 0.5 + 0.5 * 0.5 * p(1) * p(-1)
               + 0.5 * 0.5 * 0.5 * p(1) + 0.5**4)
    assert law[4][2] == pytest.approx(by_hand, rel=1e-12)


@pytest.fixture(scope="module")
def endpoint_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("endpoint")
    endpoint_law(EndpointConfig(n_ladder=(16,), replicas=20_000, master_seed=3)).write_outputs(d)
    return d


def rewrite_hist(d, fn):
    path = d / "endpoint_hist.csv"
    rows = list(csv.DictReader(open(path)))
    rows = fn(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, ["n", "x", "count"], lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def endpoint_failures(src, tmp_path, hist_fn=None, ks_override=None):
    d = tmp_path / "copy"
    d.mkdir(exist_ok=True)
    for name in ("endpoint.csv", "endpoint_hist.csv"):
        (d / name).write_text((src / name).read_text())
    if hist_fn:
        rewrite_hist(d, hist_fn)
    if ks_override is not None:
        lines = (d / "endpoint.csv").read_text().splitlines()
        cols = lines[1].split(",")
        cols[2] = repr(ks_override)
        (d / "endpoint.csv").write_text("\n".join([lines[0], ",".join(cols)]) + "\n")
    return failing(checks.endpoint_outputs([d], (16,), 20_000))


def test_endpoint_checks_pass_on_real_output(endpoint_dir, tmp_path):
    assert endpoint_failures(endpoint_dir, tmp_path) == set()


def test_endpoint_count_check_fails(endpoint_dir, tmp_path):
    def drop(rows):
        rows[0]["count"] = str(int(rows[0]["count"]) - 1)
        return rows

    assert "endpoint_count_n16" in endpoint_failures(endpoint_dir, tmp_path, drop)


def test_endpoint_parity_check_fails(endpoint_dir, tmp_path):
    def shift_one(rows):
        rows[0]["x"] = str(int(rows[0]["x"]) - 1)
        return rows

    assert "endpoint_parity_n16" in endpoint_failures(endpoint_dir, tmp_path, shift_one)


def test_endpoint_mean_check_fails(endpoint_dir, tmp_path):
    def shift_all(rows):
        for r in rows:
            r["x"] = str(int(r["x"]) + 2)
        return rows

    bad = endpoint_failures(endpoint_dir, tmp_path, shift_all)
    assert "endpoint_mean_n16" in bad


def test_endpoint_ks_checks_fail(endpoint_dir, tmp_path):
    assert endpoint_failures(endpoint_dir, tmp_path, ks_override=0.01) == {"endpoint_ks_recomputed_n16"}

    def gaussian(rows):  # simple random walk: X(256) ~ binomial, limit N(0, 1) after /16
        from scipy.stats import binom

        xs = np.arange(-256, 257, 2)
        counts = np.round(binom.pmf((xs + 256) // 2, 256, 0.5) * 20_000).astype(int)
        counts[256 // 2] += 20_000 - counts.sum()
        return [{"n": "16", "x": str(x), "count": str(c)} for x, c in zip(xs, counts) if c > 0]

    assert "endpoint_ks_n16" in endpoint_failures(endpoint_dir, tmp_path, gaussian)


# -- inverse time ------------------------------------------------------------------


@pytest.fixture(scope="module")
def it_report():
    cfg = InverseTimeConfig(master_seed=5, replicas=131072, cross_replicas=65536, threads=1)
    rep = inverse_time_asymptotics(cfg)
    return json.loads(json.dumps({"tables": rep.tables}, default=child._plain))


def it_failures(report):
    band = json.load(open(child.SRC / "srrw" / "expectations.json"))["inverse_time_scaled_band_c0"]
    return failing(checks.inverse_time_outputs([report], 24, 131072, 65536, SIGMA2, band))


def test_inverse_time_checks_pass_on_real_output(it_report):
    assert it_failures(it_report) == set()


def test_inverse_time_agreement_check_fails(it_report):
    bad = copy.deepcopy(it_report)
    row = next(r for r in bad["tables"]["inverse_time_cross"] if r["c"] == 0.0)
    row["walk_freq"] = 0.8 * row["walk_freq"]
    row["walk_freq"] = round(row["walk_freq"] * 65536) / 65536
    assert "inverse_time_agree_m12" in it_failures(bad)


def test_inverse_time_route_check_fails(it_report):
    bad = copy.deepcopy(it_report)
    del bad["tables"]["inverse_time_cross"]
    assert it_failures(bad) == {"inverse_time_routes"}


def test_inverse_time_c0_checks_fail(it_report):
    bad = copy.deepcopy(it_report)
    next(r for r in bad["tables"]["inverse_time"] if r["c"] == 0.0)["hits"] = 0
    assert {"inverse_time_c0_hits", "inverse_time_c0_band"} <= it_failures(bad)


# -- exact local CLT ---------------------------------------------------------------


@pytest.fixture(scope="module")
def lclt_run():
    from srrw.eta import EtaKernel, stationary_distribution

    law = stationary_step_law(W)
    pmf = exact_bivariate_pmf(law, 30)
    cap = child.lclt_capture(pmf, law, stationary_distribution(EtaKernel(W)))
    payload = {"total_mass": pmf.total_mass(), "truncated_mass": pmf.truncated_mass}
    return payload, cap


def lclt_failures(payload, cap):
    return failing(checks.lclt_outputs(payload, cap, SIGMA2))


def test_lclt_checks_pass_on_real_output(lclt_run):
    assert lclt_failures(*lclt_run) == set()


def test_lclt_mass_check_fails(lclt_run):
    payload, cap = lclt_run
    assert lclt_failures(dict(payload, truncated_mass=1e-9), cap) == {"lclt_mass"}


def test_lclt_moment_checks_fail(lclt_run):
    payload, cap = lclt_run
    shifted = dict(cap, a_values=cap["a_values"] + 1.0)
    assert {"lclt_mean_Y", "lclt_Y_marginal"} <= lclt_failures(payload, shifted)
    occ = cap["occupied"].copy()
    ia, ib = np.unravel_index(np.argmax(occ), occ.shape)
    moved = occ[ia, ib] * 1e-4
    occ[ia, ib] -= 2 * moved
    occ[ia - 1, ib] += moved
    occ[ia + 1, ib] += moved  # same mean, more spread
    assert {"lclt_var_Y", "lclt_Y_marginal"} <= lclt_failures(payload, dict(cap, occupied=occ))


def test_lclt_s_moment_checks_fail(lclt_run):
    payload, cap = lclt_run
    assert lclt_failures(payload, dict(cap, bt_values=cap["bt_values"] + 1.0)) == {"lclt_mean_S"}
    occ = cap["occupied"].copy()
    ia, ib = np.unravel_index(np.argmax(occ), occ.shape)
    moved = occ[ia, ib] * 0.25
    occ[ia, ib] -= 2 * moved
    occ[ia, ib - 10] += moved
    occ[ia, ib + 10] += moved  # S spreads at fixed Y
    assert lclt_failures(payload, dict(cap, occupied=occ)) == {"lclt_var_S"}
    occ = cap["occupied"].copy()
    occ[ia, ib] -= 2 * moved
    occ[ia - 1, ib - 10] += moved
    occ[ia + 1, ib + 10] += moved  # Y and S move together
    assert "lclt_cov_YS" in lclt_failures(payload, dict(cap, occupied=occ))


def test_lclt_marginal_check_fails_on_another_step_law(lclt_run):
    payload, cap = lclt_run
    probs = cap["step_probs"].copy()
    mid = len(probs) // 2
    probs[mid - 1] += 1e-6
    probs[mid] -= 1e-6
    assert "lclt_Y_marginal" in lclt_failures(payload, dict(cap, step_probs=probs))


def test_stationary_mean_check_fails(lclt_run):
    payload, cap = lclt_run
    assert "stationary_mean" in lclt_failures(payload, dict(cap, nu_lo=cap["nu_lo"] + 1))


# -- tracing -------------------------------------------------------------------------


def test_self_time_and_idle_from_spans():
    spans = [
        [1, None, "cli", 0, 0.0, 10.0, {}],
        [2, 1, "harness.run_campaign", 0, 1.0, 9.0, {}],
        [3, 2, "harness.map_blocks", 0, 2.0, 8.0, {"threads": 2}],
        [4, 3, "harness.block", 1, 2.0, 7.0, {}],
        [5, 3, "harness.block", 2, 2.0, 5.0, {}],
        [6, 4, "rayknight.batch_total_time", 1, 2.0, 7.0, {"profiles": 10}],
        [7, 6, "eta.MarginalTable.draw", 1, 3.0, 4.0, {"draws": 100}],
    ]
    m = layers.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["harness.self_s"] == 2.0
    assert m["harness.map_blocks.idle_s"] == 2 * 6.0 - 8.0
    assert m["harness.map_blocks.blocks"] == 2
    assert m["rayknight.batch_total_time.self_s"] == 4.0
    assert m["eta.MarginalTable.draw.draws_per_s"] == 100.0
    assert set(m) | {"trace.overhead_s"} == set(layers.PER_LAYER)


def test_child_traces_every_lclt_layer(tmp_path):
    sidecar = tmp_path / "side.json"
    args = [sys.executable, str(child.Path(child.__file__)), "trace", str(sidecar), "--",
            "lclt", "--N", "12", "--out", str(tmp_path)]
    assert subprocess.run(args, capture_output=True, timeout=120).returncode == 0
    side = json.loads(sidecar.read_text())
    m = layers.layer_metrics(side["spans"])
    for name in ("lclt.exact_bivariate_pmf.cells_per_s", "lclt.lclt_sup_error.busy_s",
                 "reporting.bytes_written", "cli.self_s", "eta.stationary_distribution.iterations"):
        assert m[name] > 0, name
    assert side["t_first_engine"] < side["t_main_end"]
    assert (tmp_path / "capture_lclt.npz").exists()
