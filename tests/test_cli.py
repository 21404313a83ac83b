import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srrw
from srrw.cli import main
from srrw.reporting import RunManifest

# the tails config as versions with a configurable growth function wrote it
TAILS_WITH_GROWTH = json.dumps({
    "kind": "tails", "weight": {"family": "exponential", "rate": 1.0}, "master_seed": 1, "threads": 1,
    "block_size": 65536, "m_ladder": [1000], "replicas_per_m": [20], "cross_m": 50, "cross_replicas": 40,
    "growth": "log2",
})


def run_cli(args):
    return main(list(args))


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["simulate", "--w", "exp:1.0", "--steps", "500", "--seed", "7", "--out", str(a)]) == 0
    assert run_cli(["simulate", "--w", "exp:1.0", "--steps", "500", "--seed", "7", "--out", str(b)]) == 0
    assert (a / "localtimes.csv").read_bytes() == (b / "localtimes.csv").read_bytes()
    assert (a / "walk_summary.csv").read_bytes() == (b / "walk_summary.csv").read_bytes()


def test_simulate_zero_steps(tmp_path):
    out = tmp_path / "z"
    assert run_cli(["simulate", "--w", "exp:1.0", "--steps", "0", "--out", str(out)]) == 0
    assert (out / "walk_summary.csv").exists()


def test_bad_weight_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as ei:
        run_cli(["simulate", "--w", "exp:-1.0", "--steps", "5", "--out", str(tmp_path)])
    assert ei.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as ei:
        run_cli(["frobnicate"])
    assert ei.value.code == 2


def test_stationary_json(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["stationary", "--w", "exp:1.0", "--window", "40", "--out", str(out)]) == 0
    payload = json.loads((out / "stationary.json").read_text())
    assert abs(payload["mean"] + 0.5) < 1e-6
    assert payload["sigma2"] > 0
    assert (out / "stationary_law.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["wall_clock_s"] > 0
    assert manifest["error"] is None
    # which code and libraries produced the run, in the manifest only
    version = manifest["code_version"]
    assert version["srrw"] == srrw.__version__ and version["numpy"] == np.__version__
    assert version["blas"]["name"] and version["blas"]["version"]
    if (Path(srrw.__file__).resolve().parents[2] / ".git").exists():
        assert re.fullmatch(r"[0-9a-f]{40}", version["git_commit"])
    assert "code_version" not in (out / "stationary.json").read_text()


def test_profile_command(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["profile", "--w", "exp:1.0", "--m", "3", "--replicas", "2000", "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["y", "mean", "se", "zero_frac"]
    by_y = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert by_y[0] == 3.0


def test_profile_command_right_of_origin(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["profile", "--w", "exp:1.0", "--x", "2", "--m", "3", "--replicas", "2000", "--out", str(out)]) == 0
    with open(out / "profile.csv", newline="") as fh:
        rows = {int(r["y"]): r for r in csv.DictReader(fh)}
    # the window min(x, 0) - 2m - 64 .. max(x, 0) + 2m + 64 holds both sweeps
    assert sorted(rows) == list(range(-70, 73))
    # every replica reads l+ = m at the edge
    assert (float(rows[2]["mean"]), float(rows[2]["se"]), float(rows[2]["zero_frac"])) == (3.0, 0.0, 0.0)
    assert float(rows[-70]["mean"]) == float(rows[72]["mean"]) == 0.0


def test_profile_threads_byte_identical(tmp_path):
    # three 65536-replica blocks, so the thread pool really splits the work
    common = ["profile", "--w", "exp:1.0", "--m", "2", "--replicas", "140000", "--seed", "5"]
    assert run_cli(common + ["--out", str(tmp_path / "t1")]) == 0
    assert run_cli(common + ["--threads", "2", "--out", str(tmp_path / "t2")]) == 0
    assert (tmp_path / "t1" / "profile.csv").read_bytes() == (tmp_path / "t2" / "profile.csv").read_bytes()


def test_profile_window_holds_the_whole_profile(tmp_path):
    # at m = 400 a window of 2m + 64 sites cuts about a fifth of the ramp:1:1 profiles short
    out = tmp_path / "p"
    assert run_cli(["profile", "--w", "ramp:1:1", "--m", "400", "--replicas", "500", "--seed", "3",
                    "--out", str(out)]) == 0
    with open(out / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ys = [int(r["y"]) for r in rows]
    assert ys == list(range(ys[0], ys[-1] + 1)) and ys[0] == -ys[-1] < -2 * 400 - 64
    for r in (rows[0], rows[-1]):
        assert (float(r["mean"]), float(r["zero_frac"])) == (0.0, 1.0)


def test_profile_without_absorption_exits_2(tmp_path, capsys, monkeypatch):
    from srrw.rayknight import RayKnightSampler

    # a profile that never absorbs stops its sweep at 4m + |x| + 4096 sites
    monkeypatch.setattr(RayKnightSampler, "_advance", lambda self, idx, rng: idx.copy())
    assert run_cli(["profile", "--w", "exp:1", "--m", "1", "--replicas", "5", "--out", str(tmp_path / "p")]) == 2
    assert "sweep failed to absorb within cap" in capsys.readouterr().err


def _profile_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("w,m", [("exp:1", 5), ("ramp:1:1", 5), ("ramp:1:1", 400)])
@pytest.mark.parametrize("x", [-3, 0, 2])
def test_profile_csv_matches_the_profile_window(tmp_path, monkeypatch, w, m, x):
    # 700 replicas in blocks of 300: block b of profile.csv draws from substream(seed, 1, b);
    # at m = 400 the ramp:1:1 window needs more than the first margin of 64
    from srrw import cli
    from srrw.harness import substream
    from srrw.rayknight import RayKnightSampler
    from srrw.weights import WeightFunction

    monkeypatch.setattr(cli, "DEFAULT_BLOCK", 300)
    replicas, seed = 700, 11
    assert run_cli(["profile", "--w", w, "--x", str(x), "--m", str(m), "--replicas", str(replicas),
                    "--seed", str(seed), "--out", str(tmp_path / "p")]) == 0
    rows = _profile_rows(tmp_path / "p" / "profile.csv")
    y_lo, y_hi = int(rows[0]["y"]), int(rows[-1]["y"])
    # the window rule: a margin of 64 doubled until both end sites read l+ = 0 in every replica
    margin = y_hi - max(x, 0) - 2 * m
    assert min(x, 0) - 2 * m - y_lo == margin and margin >= 64 and margin & (margin - 1) == 0
    sampler = RayKnightSampler(WeightFunction.parse(w))
    blocks = [sampler.batch_profile_window(x, m, min(300, replicas - start), substream(seed, 1, b), y_lo, y_hi)
              for b, start in enumerate(range(0, replicas, 300))]
    ends = [np.concatenate([got[y] for got in blocks]) for y in (y_lo + margin // 2, y_hi - margin // 2)]
    assert margin == 64 or any(end.any() for end in ends)  # half the margin would cut a profile short
    if m == 400:
        assert margin > 64  # this case widens the window
    assert [int(r["y"]) for r in rows] == list(range(y_lo, y_hi + 1))
    for r in rows:
        vals = np.concatenate([got[int(r["y"])] for got in blocks]).astype(np.float64)
        assert float(r["mean"]) == vals.mean() and float(r["zero_frac"]) == (vals == 0).mean(), r
        se = vals.std(ddof=1) / np.sqrt(replicas)
        assert abs(float(r["se"]) - se) <= 1e-15 * se, r
    assert float(rows[0]["zero_frac"]) == float(rows[-1]["zero_frac"]) == 1.0


def test_profile_sweeps_each_block_once(tmp_path, monkeypatch):
    from srrw import cli
    from srrw.rayknight import RayKnightSampler

    calls = []
    sweep = RayKnightSampler._sweep

    def counted(self, x, m, R, *args, **kwargs):
        calls.append((x, m, R))
        return sweep(self, x, m, R, *args, **kwargs)

    monkeypatch.setattr(RayKnightSampler, "_sweep", counted)
    monkeypatch.setattr(cli, "DEFAULT_BLOCK", 300)
    # at m = 400 the ramp:1:1 window needs more than the first margin of 64
    assert run_cli(["profile", "--w", "ramp:1:1", "--m", "400", "--replicas", "700", "--seed", "3",
                    "--out", str(tmp_path / "p")]) == 0
    assert calls == [(0, 400, 300), (0, 400, 300), (0, 400, 100)]
    assert int(_profile_rows(tmp_path / "p" / "profile.csv")[0]["y"]) < -2 * 400 - 64


def test_lclt_over_budget_names_the_largest_n(tmp_path, capsys):
    from srrw.errors import SupportBudgetError
    from srrw.lclt import exact_bivariate_pmf, stationary_step_law

    out = tmp_path / "l"
    assert run_cli(["lclt", "--N", "2000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exceed the cell budget of 60000000" in err
    with pytest.raises(SupportBudgetError) as ei:
        exact_bivariate_pmf(stationary_step_law(srrw.WeightFunction("exponential", (1.0,))), 2000)
    assert int(re.search(r"the largest N that fits is (\d+)", err).group(1)) == ei.value.suggested_n
    assert json.loads((out / "manifest.json").read_text())["error"] == err.strip()[len("error: "):]


@pytest.mark.parametrize("command", [
    ["simulate", "--w", "exp:1.0", "--steps", "5"],
    ["stationary", "--w", "exp:1.0"],
    ["lclt", "--N", "5"],
])
def test_threads_only_where_used(tmp_path, command):
    with pytest.raises(SystemExit) as ei:
        run_cli(command + ["--threads", "2", "--out", str(tmp_path / "x")])
    assert ei.value.code == 2


def test_lclt_command(tmp_path):
    out = tmp_path / "l"
    assert run_cli(["lclt", "--N", "25", "--out", str(out)]) == 0
    payload = json.loads((out / "lclt.json").read_text())
    assert "sup_scaled_error" in payload
    grid = (out / "lclt_grid.csv").read_text().splitlines()
    assert grid[0] == "a,b,exact,predicted,scaled_error"
    assert len(grid) > 10


def test_lclt_bad_law_writes_nothing(tmp_path):
    # the step law always comes from the stationary law: there is no --law option
    out = tmp_path / "bogus"
    with pytest.raises(SystemExit) as ei:
        run_cli(["lclt", "--N", "5", "--law", "bogus", "--out", str(out)])
    assert ei.value.code == 2
    assert not out.exists()


def test_lclt_tolerance_exit(tmp_path):
    out = tmp_path / "lf"
    assert run_cli(["lclt", "--N", "25", "--max-sup", "1e-9", "--out", str(out)]) == 1
    # only a sup error that exceeds --max-sup fails the run, so equality passes
    sup = json.loads((out / "lclt.json").read_text())["sup_scaled_error"]
    assert run_cli(["lclt", "--N", "25", "--max-sup", repr(sup), "--out", str(tmp_path / "eq")]) == 0


def test_campaign_and_manifest_rerun(tmp_path):
    out1 = tmp_path / "c1"
    code = run_cli([
        "campaign", "--kind", "profile-shape", "--seed", "21", "--replicas", "40",
        "--param", "k_ladder=[400,1600]", "--out", str(out1),
    ])
    assert code == 0
    out2 = tmp_path / "c2"
    assert run_cli(["campaign", "--manifest", str(out1 / "manifest.json"),
                    "--threads", "2", "--out", str(out2)]) == 0
    assert (out1 / "profile_shape.csv").read_bytes() == (out2 / "profile_shape.csv").read_bytes()
    r1 = json.loads((out1 / "results.json").read_text())
    r2 = json.loads((out2 / "results.json").read_text())
    r1["config"].pop("threads")
    r2["config"].pop("threads")
    assert r1 == r2


def _inverse_time_writes_outputs(out, x):
    code = run_cli([
        "campaign", "--kind", "inverse-time", "--seed", "3", "--replicas", "4000",
        "--param", "n=8", "--param", "c_targets=[0.0,1.0]", "--param", "cross_replicas=2000",
        "--param", f"x={x}", "--out", str(out),
    ])
    assert code in (0, 1)
    results = json.loads((out / "results.json").read_text())
    assert results["replicas_total"] == 2 * 4000 + 2000
    assert all(isinstance(c["passed"], bool) for c in results["checks"])
    assert any(c["name"].startswith("inverse_time_cross_m") for c in results["checks"])
    for name in ("inverse_time", "inverse_time_cross", "riemann"):
        with open(out / f"{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and len(rows) == len(results["tables"][name])
        # every cell is a number: no numpy scalar spelled with its type name
        for row in rows:
            for col, cell in row.items():
                assert re.fullmatch(r"-?\d+(\.\d*)?(e[-+]\d+)?|-?inf|nan", cell), (name, col, cell)
    assert {int(r["x"]) for r in results["tables"]["inverse_time"]} == {x}


def test_inverse_time_campaign_writes_outputs(tmp_path):
    _inverse_time_writes_outputs(tmp_path / "it", 0)


def test_inverse_time_campaign_right_of_origin(tmp_path):
    # x = 2 samples T+ at the edge 1 -> 2
    _inverse_time_writes_outputs(tmp_path / "it", 2)


def test_campaign_requires_kind_or_manifest(tmp_path):
    assert run_cli(["campaign", "--out", str(tmp_path / "x")]) == 2


def test_manifest_rerun_applies_flags(tmp_path):
    # a re-run merges its flags over the manifest's config as a fresh run merges them over --config
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli(["campaign", "--kind", "profile-shape", "--seed", "21", "--replicas", "10",
                    "--param", "k_ladder=[400,1600]", "--out", str(out1)]) in (0, 1)
    assert run_cli(["campaign", "--manifest", str(out1 / "manifest.json"), "--seed", "999",
                    "--param", "k_ladder=[400]", "--out", str(out2)]) in (0, 1)
    config = json.loads((out2 / "manifest.json").read_text())["config"]
    assert config["master_seed"] == 999 and config["k_ladder"] == [400] and config["replicas"] == 10
    assert json.loads((out2 / "results.json").read_text())["config"] == config


def test_manifest_and_config_exclude_each_other(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as ei:
        run_cli(["campaign", "--manifest", str(path), "--config", str(path), "--out", str(tmp_path / "c")])
    assert ei.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_cli_import_skips_scipy():
    # scipy.stats costs most of a second to import; only tail bounds need it
    code = "import sys, srrw.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "srrw.cli", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("kind,param,message", [
    ("inverse-time", "x=1", "must share the parity of n^2"),
    ("endpoint", "n_ladder=[8", "is not KEY=JSON"),
    ("tails", "m_ladder=[50]", "m=50 is too small for the log2 growth"),
    ("tails", "replicas_per_m=[20,20]", "replicas_per_m has 2 entries for 3 m_ladder points"),
    # configs whose checks would pass without evidence
    ("endpoint", "n_ladder=[]", "endpoint: n_ladder is empty"),
    ("profile-shape", "k_ladder=[]", "profile_shape: k_ladder is empty"),
    ("wterms", "n_ladder=[]", "wterms: n_ladder is empty"),
    ("tails", "m_ladder=[]", "tails: m_ladder is empty"),
    ("inverse-time", "c_targets=[-10]", "no c target gives a level m >= 1"),
    ("inverse-time", "c_targets=[]", "no c target gives a level m >= 1"),
    ("lclt-table", "n=1", "no site |x| <= n - n^alpha has the parity of n^2"),
    # counts that would end in a traceback
    ("endpoint", "replicas=0", "endpoint: replicas=0 must be >= 1"),
    ("wterms", "replicas=0", "wterms: replicas=0 must be >= 1"),
    ("inverse-time", "n=0", "inverse_time: n=0 must be >= 1"),
    ("endpoint", "n_ladder=[0, 8]", "endpoint: n_ladder entries must be >= 1"),
    ("tails", "replicas_per_m=[20,0,4]", "tails: replicas_per_m entries must be >= 1"),
    # non-integer counts, which would fail mid-run
    ("endpoint", "n_ladder=[2.5]", "endpoint: n_ladder entries must be integers"),
    ("endpoint", "replicas=100.5", "endpoint: replicas=100.5 must be an integer"),
    ("tails", "cross_replicas=10.5", "tails: cross_replicas=10.5 must be an integer"),
    ("endpoint", "replicas=true", "endpoint: replicas=True must be an integer"),
    ("tails", "replicas_per_m=[20,true,4]", "tails: replicas_per_m entries must be integers"),
    # a key that is no field of the config, and a manifest naming no kind or a removed field
    ("endpoint", "bogus=1", "endpoint: bogus is not a field of the endpoint config"),
    pytest.param("--manifest", '{"n_ladder": [4], "replicas": 10}', "campaign kind=None is not one of",
                 id="manifest-no-kind"),
    pytest.param("--manifest", TAILS_WITH_GROWTH, "tails: growth is not a field of the tails config",
                 id="manifest-tails-growth"),
    # values that would end in a traceback once the run started
    ("endpoint", "n_ladder=5", "endpoint: n_ladder=5 must be a list"),
    ("lclt-table", 'alpha="x"', "lclt_table: alpha='x' must be a finite number"),
    ("inverse-time", "c_targets=[0.0,NaN]", "inverse_time: c_targets entries must be finite numbers"),
    pytest.param("wterms", "M=1" + "0" * 400, "must be a finite number", id="wterms-M=10**400"),
    ("endpoint", 'weight={"family":"exponential"}', "endpoint: weight={'family': 'exponential'} is not a weight"),
    ("wterms", "master_seed=-1", "wterms: master_seed=-1 must be >= 0"),
    # negative counts, and levels or edges outside the Ray-Knight sampler's domain
    pytest.param("--manifest", '{"kind": "tails", "m_ladder": [1000], "replicas_per_m": [10], "cross_replicas": -1}',
                 "tails: cross_replicas=-1 must be >= 0", id="manifest-tails-cross_replicas=-1"),
    pytest.param("--manifest", '{"kind": "tails", "m_ladder": [1000], "replicas_per_m": [10], "cross_m": -3}',
                 "tails: cross_m=-3 must be >= 0", id="manifest-tails-cross_m=-3"),
    pytest.param("--manifest", '{"kind": "inverse_time", "n": 4, "replicas": 10, "cross_replicas": -1}',
                 "inverse_time: cross_replicas=-1 must be >= 0", id="manifest-inverse-time-cross_replicas=-1"),
    ("lclt-table", "n=-4", "lclt_table: n=-4 must be >= 1"),
    # x > 0 passes the config checks up to the levels check
    pytest.param("--manifest", '{"kind": "inverse_time", "n": 4, "x": 2, "c_targets": [-10], "replicas": 10, '
                 '"cross_replicas": 10}', "no c target gives a level m >= 1 at n=4, x=2", id="manifest-inverse-time-x=2"),
    ("wterms", "n_ladder=[1,4]", "wterms: the levels m = round(n/2) of n_ladder, [0, 2], must be >= 1"),
])
def test_bad_campaign_param_writes_nothing(tmp_path, capsys, kind, param, message):
    out = tmp_path / "c"
    if kind == "--manifest":  # param is the config of the manifest re-run
        manifest = tmp_path / "manifest.json"
        RunManifest("campaign", json.loads(param), 0, {}).write(manifest)
        argv = ["--manifest", str(manifest)]
    else:
        argv = ["--kind", kind, "--param", param]
    assert run_cli(["campaign", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "manifest.json").exists()


# explicit ids: a case that goes takes no other case's name with it
@pytest.mark.parametrize("argv,message", [
    pytest.param(["lclt", "--N", "0"], "--N 0 must be >= 1", id="argv0---N 0 must be >= 1"),
    pytest.param(["lclt", "--box", "-1"], "--box -1.0 must be > 0", id="argv1---box -1.0 must be > 0"),
    pytest.param(["lclt", "--box", "nan"], "--box nan must be > 0", id="argv2---box nan must be > 0"),
    pytest.param(["simulate", "--w", "exp:1", "--steps", "-5"], "--steps -5 must be >= 0",
                 id="argv4---steps -5 must be >= 0"),
    pytest.param(["profile", "--w", "exp:1", "--m", "0"], "--m 0 must be >= 1", id="argv5---m 0 must be >= 1"),
    pytest.param(["profile", "--w", "exp:1", "--m", "0", "--x", "1"], "--m 0 must be >= 1",  # --x 1 passes
                 id="argv6---m 0 must be >= 1"),
    pytest.param(["profile", "--w", "exp:1", "--m", "3", "--replicas", "0"], "--replicas 0 must be >= 1",
                 id="argv7---replicas 0 must be >= 1"),
    pytest.param(["profile", "--w", "exp:1", "--m", "3", "--threads", "0"], "--threads 0 must be >= 1",
                 id="argv8---threads 0 must be >= 1"),
    pytest.param(["stationary", "--w", "exp:1", "--window", "-5"], "--window -5 must be >= 1",
                 id="argv9---window -5 must be >= 1"),
    pytest.param(["campaign", "--kind", "endpoint", "--replicas", "10", "--param", "n_ladder=[4]", "--threads", "-3"],
                 "threads=-3 must be >= 1", id="argv10-threads=-3 must be >= 1"),
    pytest.param(["lclt", "--box", "inf"], "--box inf must be < inf", id="argv11---box inf must be < inf"),
    pytest.param(["simulate", "--w", "exp:1", "--steps", "5", "--seed", "-1"], "--seed -1 must be >= 0",
                 id="argv12---seed -1 must be >= 0"),
    pytest.param(["profile", "--w", "exp:1", "--m", "3", "--seed", "-2"], "--seed -2 must be >= 0",
                 id="argv13---seed -2 must be >= 0"),
    pytest.param(["lclt", "--N", "25", "--max-sup", "nan"], "--max-sup nan must be > 0",
                 id="argv14---max-sup nan must be > 0"),
])
def test_bad_argument_writes_nothing(tmp_path, capsys, argv, message):
    # refused before the manifest is written, not by a traceback or an empty run mid-way
    out = tmp_path / "o"
    out.mkdir()
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("flag,content,message", [
    ("--config", '{"n_ladder": [8', "cannot read --config"),
    ("--config", None, "No such file"),
    ("--config", "[1, 2]", "cannot read --config"),
    ("--manifest", None, "No such file"),
    ("--manifest", '{"config": ', "cannot read --manifest"),
    ("--manifest", '{"bogus": 1}', "cannot read --manifest"),
])
def test_unreadable_campaign_file_writes_nothing(tmp_path, capsys, flag, content, message):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "c"
    kind = ["--kind", "endpoint"] if flag == "--config" else []
    assert run_cli(["campaign", *kind, flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_sampler_cap_exits_2(tmp_path, capsys, monkeypatch):
    from srrw.rayknight import RayKnightSampler

    # a sweep that never absorbs runs into the sampler's cap
    monkeypatch.setattr(RayKnightSampler, "_advance", lambda self, idx, rng: idx.copy())
    code = run_cli(["campaign", "--kind", "inverse-time", "--replicas", "10", "--param", "n=4",
                    "--param", "cross_replicas=0", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "error: right sweep failed to absorb within cap" in capsys.readouterr().err
    # the manifest written before the run records that the run failed
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["error"] == "right sweep failed to absorb within cap"
    assert manifest["outputs"] == [] and manifest["wall_clock_s"] is None
