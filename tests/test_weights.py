import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srrw import EvaluationRangeError, InvalidWeightError, WeightFunction


def test_step_probability_fresh_site_is_half(w_exp, w_ramp):
    assert w_exp.p_right(0) == 0.5
    assert w_ramp.p_right(0) == 0.5


def test_step_probability_exp_unit_values(w_exp):
    e = math.e
    assert w_exp.p_right(1) == pytest.approx(math.exp(-1) / (e + math.exp(-1)), rel=1e-12)
    assert w_exp.p_right(1) == pytest.approx(0.1192, abs=5e-5)
    assert w_exp.p_right(-1) == pytest.approx(0.8808, abs=5e-5)


@given(d=st.integers(-60, 60), rate=st.floats(0.1, 3.0))
def test_step_probability_mirror_identity(d, rate):
    w = WeightFunction("exponential", (rate,))
    assert w.p_right(-d) == pytest.approx(1.0 - w.p_right(d), abs=1e-12)


def test_exp_shortcut_matches_generic_formula():
    w = WeightFunction("exponential", (0.7,))
    for d in range(-40, 41):
        generic = w.w(-d) / (w.w(d) + w.w(-d))
        assert w.p_right(d) == pytest.approx(generic, rel=1e-12)


def test_ramp_probability_decays_like_one_over_d(w_ramp):
    # w(-d)/(w(d)+w(-d)) = f/(2f + s d) for d > 0
    assert w_ramp.p_right(10) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_symmetric_weight_rejected():
    with pytest.raises(InvalidWeightError):
        WeightFunction("table", (-2, (1.0, 1.0, 1.0, 1.0, 1.0)))


def test_negative_rate_rejected():
    with pytest.raises(InvalidWeightError):
        WeightFunction("exponential", (-1.0,))


def test_decreasing_table_rejected():
    with pytest.raises(InvalidWeightError):
        WeightFunction("table", (-1, (2.0, 1.0, 3.0)))


def test_nonpositive_table_rejected():
    with pytest.raises(InvalidWeightError):
        WeightFunction("table", (-1, (0.0, 1.0, 2.0)))


def test_table_extends_by_constancy():
    w = WeightFunction("table", (-1, (1.0, 2.0, 4.0)))
    assert w.w(-10) == 1.0
    assert w.w(10) == 4.0
    assert w.w(0) == 2.0


def test_exp_overflow_reported():
    w = WeightFunction("exponential", (1.0,))
    with pytest.raises(EvaluationRangeError):
        w.w(10_000)


def test_parse_round_trip():
    for text in ("exp:1.0", "ramp:2.0:0.5", "table:-1:1,2,4"):
        w = WeightFunction.parse(text)
        again = WeightFunction.from_spec(w.spec())
        assert again == w


def test_parse_rejects_garbage():
    with pytest.raises(InvalidWeightError):
        WeightFunction.parse("exp:abc")
    with pytest.raises(InvalidWeightError):
        WeightFunction.parse("nope:1")
    for text in ("exponential:1", "linear_ramp:1:1", "linear-ramp:1:1"):  # only exp:, ramp: and table:
        with pytest.raises(InvalidWeightError, match="unknown weight spec"):
            WeightFunction.parse(text)


@given(values=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8))
def test_sorted_tables_validate(values):
    vals = tuple(sorted(values))
    if vals[-1] - vals[0] <= 0:
        return
    w = WeightFunction("table", (-len(vals) // 2, vals))
    assert w.p_right(0) == 0.5
