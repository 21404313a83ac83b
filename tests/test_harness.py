import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from srrw import (
    EndpointConfig,
    InverseTimeConfig,
    LcltTableConfig,
    ProfileShapeConfig,
    TailConfig,
    WTermsConfig,
    config_from_dict,
    endpoint_law,
    inverse_time_asymptotics,
    local_clt_table,
    profile_shape,
    run_campaign,
    tail_bounds_suite,
    w_boundary_terms,
)
from srrw import vectorwalk as vw
from srrw.errors import CampaignConfigError
from srrw.harness import (
    _LEAST,
    CONFIG_KINDS,
    KIND_ENDPOINT,
    KIND_PROFILE_SHAPE,
    ks_vs_uniform,
    load_expectations,
    mean_se,
    substream,
    upper95,
)
from srrw.rayknight import RayKnightSampler


def test_expectations_load_packaged_file():
    exp = load_expectations()
    assert "endpoint_ks_max" in exp


def test_upper95_zero_hits():
    u = upper95(0, 1000)
    assert 0.0025 < u < 0.0035  # rule of three
    assert upper95(1000, 1000) == 1.0


def test_ks_statistic_exact_small_case():
    # two atoms at +-n with equal mass vs U(-1,1): D = 1/2
    d = ks_vs_uniform(np.array([-10, 10]), np.array([5, 5]), 10.0)
    assert d == pytest.approx(0.5)


def test_endpoint_n1_trivial():
    cfg = EndpointConfig(master_seed=3, n_ladder=(1,), replicas=2000)
    rep = endpoint_law(cfg)
    row = rep.tables["endpoint"][0]
    hist = {r["x"]: r["count"] for r in rep.tables["endpoint_hist"]}
    assert set(hist) == {-1, 1}
    freq = hist[1] / 2000
    assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / 2000) + 1e-9
    assert abs(row["mean_scaled"]) <= 3 * row["se_mean"] + 1e-12


LADDER = dict(master_seed=13, n_ladder=(3, 5, 8), replicas=2000, block_size=700, threads=2)


def test_endpoint_ladder_reads_one_walk_per_block():
    # every ladder point counts the positions of block b's walk on stream (kind, 0, b)
    cfg = EndpointConfig(**LADDER)
    rep = endpoint_law(cfg)
    w = cfg.weight_fn()
    for n in cfg.n_ladder:
        want: dict = {}
        for b, start in enumerate(range(0, cfg.replicas, cfg.block_size)):
            count = min(cfg.block_size, cfg.replicas - start)
            pos = vw.final_positions(w, n * n, count, substream(cfg.master_seed, KIND_ENDPOINT, 0, b))[0]
            for x, c in zip(*np.unique(pos, return_counts=True)):
                want[int(x)] = want.get(int(x), 0) + int(c)
        got = {r["x"]: r["count"] for r in rep.tables["endpoint_hist"] if r["n"] == n}
        assert got == want, n


def test_endpoint_ladder_walks_each_block_once(monkeypatch):
    calls = []
    walk = vw.final_positions

    def counted(*args, **kwargs):
        calls.append(args[1])
        return walk(*args, **kwargs)

    monkeypatch.setattr(vw, "final_positions", counted)
    endpoint_law(EndpointConfig(**LADDER))
    assert calls == [64, 64, 64]  # three blocks, each walked to the largest n^2


def test_local_clt_table_smoke():
    cfg = LcltTableConfig(master_seed=5, n=12, replicas=30_000, alpha=0.6)
    rep = local_clt_table(cfg)
    rows = rep.tables["lclt_table"]
    assert rows, "grid must be nonempty"
    xs = [r["x"] for r in rows]
    assert all((abs(x)) % 2 == 0 for x in xs)  # n^2 even
    mass = sum(r["hits"] for r in rows) / 30_000
    assert mass <= 1.0
    assert any(c.name == "lclt_table_mass" and c.passed for c in rep.checks)


def test_profile_shape_smoke():
    cfg = ProfileShapeConfig(master_seed=6, k_ladder=(400, 1600), replicas=60)
    rep = profile_shape(cfg)
    rows = rep.tables["profile_shape"]
    assert rows[0]["median_dev"] > rows[1]["median_dev"]
    assert all(r["median_dev"] >= 0 for r in rows)
    assert rep.passed()


SHAPE_LADDER = dict(master_seed=6, k_ladder=(100, 400, 900), replicas=50, block_size=20, threads=2)


def test_profile_shape_reads_one_walk_per_block():
    # every ladder point reads the l+ rows of block b's walk on stream (kind, 0, b) at its own k
    cfg = ProfileShapeConfig(**SHAPE_LADDER)
    rows = profile_shape(cfg).tables["profile_shape"]
    w = cfg.weight_fn()
    for k, row in zip(cfg.k_ladder, rows):
        sq = math.sqrt(k)
        devs = []
        for b, start in enumerate(range(0, cfg.replicas, cfg.block_size)):
            count = min(cfg.block_size, cfg.replicas - start)
            _, lp, site_lo = vw.final_positions(w, k, count, substream(cfg.master_seed, KIND_PROFILE_SHAPE, 0, b),
                                                want_lplus=True)
            target = 0.5 * np.clip(1.0 - np.abs(site_lo + np.arange(lp.shape[1])) / sq, 0.0, None)
            devs.append(np.abs(lp / sq - target).max(axis=1))
        devs = np.concatenate(devs)
        assert (row["median_dev"], row["p95_dev"]) == (float(np.median(devs)), float(np.quantile(devs, 0.95))), k


def test_profile_shape_walks_each_block_once(monkeypatch):
    calls = []
    walk = vw.final_positions

    def counted(*args, **kwargs):
        calls.append(args[1])
        return walk(*args, **kwargs)

    monkeypatch.setattr(vw, "final_positions", counted)
    profile_shape(ProfileShapeConfig(**SHAPE_LADDER))
    assert calls == [900, 900, 900]  # three blocks, each walked to the largest k


def test_tail_suite_small_ladder():
    cfg = TailConfig(master_seed=7, m_ladder=(200, 400), replicas_per_m=(400, 400),
                     cross_m=20, cross_replicas=2000)
    rep = tail_bounds_suite(cfg)
    rows = rep.tables["tails"]
    assert {r["event"] for r in rows} == {"rho", "lam", "l_gt", "l_lt"}
    for r in rows:
        assert 0.0 <= r["freq"] <= 1.0
        assert r["upper95"] >= r["freq"]
    assert any(c.name == "tail_cross_validation" and c.passed for c in rep.checks)


def test_wterms_smoke():
    cfg = WTermsConfig(master_seed=8, n_ladder=(30, 60), replicas=800)
    rep = w_boundary_terms(cfg)
    rows = rep.tables["wterms"]
    assert len(rows) == 4
    for r in rows:
        assert 0.0 <= r["freq"] <= 1.0
    names = {c.name for c in rep.checks}
    assert "wterms_monotone_k1" in names and "wterms_symmetry_n30" in names


@pytest.mark.parametrize("h1,h2,passed", [(0, 1, True), (0, 200, False)])
def test_wterms_symmetry_counts_both_errors(monkeypatch, h1, h2, passed):
    # (h1, h2) replicas of 20000 have W1, W2 above the threshold; the verdict must not
    # depend on which of the two is which
    verdicts = []
    for a, b in ((h1, h2), (h2, h1)):
        def sums(self, x, m, count, seed, boundary, a=a, b=b):
            return (np.arange(count) < a) * 10**9, (np.arange(count) < b) * 10**9

        monkeypatch.setattr(RayKnightSampler, "batch_boundary_sums", sums)
        rep = w_boundary_terms(WTermsConfig(n_ladder=(30,), replicas=20_000))
        assert [r["hits"] for r in rep.tables["wterms"]] == [a, b]
        verdicts += [c.passed for c in rep.checks if c.name == "wterms_symmetry_n30"]
    assert verdicts == [passed, passed]


def test_inverse_time_small():
    cfg = InverseTimeConfig(master_seed=9, n=12, x=0, c_targets=(0.0, 1.0),
                            replicas=40_000, cross_replicas=20_000)
    rep = inverse_time_asymptotics(cfg)
    # the walk cross-check runs once for all levels
    assert len(rep.tables["inverse_time"]) == 2
    assert rep.replicas_total == 2 * 40_000 + 20_000
    riemann = rep.tables["riemann"][0]
    assert riemann["abs_error"] < 0.01
    row = rep.tables["inverse_time"][0]
    assert row["m"] == 6 and row["c"] == 0.0
    assert row["hits"] > 0
    # the walk is at x = 0 at time n^2 iff one of the landing inverse local
    # times equals n^2; the scaled estimate should be near 1 even at n=12
    assert 0.4 < row["scaled"] < 1.6


def test_inverse_time_rejects_bad_parity():
    with pytest.raises(ValueError):
        inverse_time_asymptotics(InverseTimeConfig(master_seed=1, n=12, x=1))


@pytest.mark.parametrize("cls", [EndpointConfig, LcltTableConfig, TailConfig, InverseTimeConfig])
@pytest.mark.parametrize("field,value", [("block_size", 0), ("block_size", -1), ("threads", 0), ("threads", -3)])
def test_config_rejects_empty_blocks_and_threads(cls, field, value):
    # block_size=0 would make map_blocks append empty blocks forever
    with pytest.raises(CampaignConfigError, match=f"{field}={value}"):
        cls(**{field: value})


def _bounded_fields(cls) -> list:
    """The count, size and seed fields of a config class: every integer field but the edge x."""
    return [f.name for f in fields(cls) if f.type in ("int", "tuple[int, ...]") and f.name != "x"]


def test_every_integer_field_has_a_least_value():
    # a new count field cannot go unchecked
    for cls in CONFIG_KINDS.values():
        assert set(_bounded_fields(cls)) <= set(_LEAST), cls.kind


@pytest.mark.parametrize("cls,name", [pytest.param(cls, name, id=f"{kind}-{name}")
                                      for kind, cls in CONFIG_KINDS.items() for name in _bounded_fields(cls)])
def test_config_refuses_one_below_least(cls, name):
    least = _LEAST[name]
    default = getattr(cls, name)
    value = (least - 1, *default[1:]) if isinstance(default, tuple) else least - 1
    with pytest.raises(CampaignConfigError, match=re.escape(f"{cls.kind}: {name}") + f".* must be >= {least}$"):
        cls(**{name: value})


def test_mean_se():
    # the values 1, 2, 6, then 1e8 plus each: exact integer sums lose no digits to the shift
    assert mean_se(3, 9, 41) == (3.0, math.sqrt(7.0 / 3.0))
    big = [10**8 + v for v in (1, 2, 6)]
    assert mean_se(3, sum(big), sum(v * v for v in big)) == (100000003.0, math.sqrt(7.0 / 3.0))
    assert mean_se(1, 5, 25) == (5.0, 0.0)


def test_campaign_dispatch_and_config_round_trip():
    cfg = ProfileShapeConfig(master_seed=11, k_ladder=(400,), replicas=20)
    d = cfg.to_dict()
    cfg2 = config_from_dict(json.loads(json.dumps(d)))
    assert cfg2 == cfg
    rep = run_campaign(cfg2)
    assert rep.kind == "profile_shape"


def test_determinism_across_thread_budgets(tmp_path):
    base = dict(master_seed=42, n_ladder=(8, 12), replicas=9000, block_size=2048)
    rep1 = endpoint_law(EndpointConfig(threads=1, **base))
    rep2 = endpoint_law(EndpointConfig(threads=3, **base))
    d1, d2 = rep1.to_json_dict(), rep2.to_json_dict()
    d1["config"].pop("threads")
    d2["config"].pop("threads")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    rep1.write_outputs(p1)
    rep2.write_outputs(p2)
    assert (p1 / "endpoint_hist.csv").read_bytes() == (p2 / "endpoint_hist.csv").read_bytes()


def test_report_serialization_skips_wall_clock(tmp_path):
    cfg = ProfileShapeConfig(master_seed=12, k_ladder=(400,), replicas=20)
    rep = profile_shape(cfg)
    rep.write_outputs(tmp_path)
    assert "wall_clock" not in (tmp_path / "results.json").read_text()
