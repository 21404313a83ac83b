import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw import vectorwalk as vw
from srrw import (
    WeightFunction,
    extract_eta_sequence,
    inverse_local_time,
    range_extremes,
    simulate_walk,
)
from srrw.enumeration import exact_position_law


def make_trajectory(w, steps_list):
    """Trajectory object for a forced step sequence (probability > 0 path)."""
    t = simulate_walk(w, 0, seed=0)
    signs = np.array(steps_list, dtype=np.int8)
    positions = np.concatenate(([0], np.cumsum(signs))).astype(np.int64)
    t.steps = signs
    t.positions = positions
    t.localtimes = t.local_times_at(len(signs))
    return t


def test_simulate_deterministic(w_exp):
    a = simulate_walk(w_exp, 500, seed=13)
    b = simulate_walk(w_exp, 500, seed=13)
    assert np.array_equal(a.steps, b.steps)
    c = simulate_walk(w_exp, 500, seed=14)
    assert not np.array_equal(a.steps, c.steps)


def test_zero_steps(w_exp):
    t = simulate_walk(w_exp, 0, seed=1)
    assert len(t) == 0
    assert t.positions.tolist() == [0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), steps=st.integers(0, 250),
       rate=st.sampled_from([0.5, 1.0, 2.0]))
def test_walk_invariants(seed, steps, rate):
    w = WeightFunction("exponential", (rate,))
    t = simulate_walk(w, steps, seed=seed)
    # nearest-neighbor steps and parity
    assert np.all(np.abs(np.diff(t.positions)) == 1)
    assert all((int(x) - k) % 2 == 0 for k, x in enumerate(t.positions))
    # local-time conservation at every prefix via the final table on full length
    assert t.localtimes.total() == steps
    mid = steps // 2
    assert t.local_times_at(mid).total() == mid
    # the count definition of the directed-edge local times
    table = t.localtimes
    for x in table.visited_sites():
        lp = sum(1 for j in range(steps) if t.positions[j] == x and t.steps[j] == 1)
        lm = sum(1 for j in range(steps) if t.positions[j] == x and t.steps[j] == -1)
        assert table.l_plus(x) == lp and table.l_minus(x) == lm


def test_single_step_law(w_exp):
    hits = sum(simulate_walk(w_exp, 1, seed=s).positions[-1] == 1 for s in range(4000))
    se = (0.25 / 4000) ** 0.5
    assert abs(hits / 4000 - 0.5) < 4 * se


def test_two_step_law_weight_free(w_ramp):
    final = [simulate_walk(w_ramp, 2, seed=s).positions[-1] for s in range(4000)]
    freqs = {v: final.count(v) / 4000 for v in (-2, 0, 2)}
    assert freqs[0] == pytest.approx(0.5, abs=0.035)
    assert freqs[2] == pytest.approx(0.25, abs=0.03)
    assert freqs[-2] == pytest.approx(0.25, abs=0.03)


def test_conditioned_third_step(w_exp):
    # after 0 -> 1 -> 0 the origin has d = 1, so the right-step probability
    # is 1/(1 + e^2); checked against the exact conditional law
    law = exact_position_law(w_exp, 3, prefix=(1, -1))
    total = sum(law.values())
    assert law[1] / total == pytest.approx(1.0 / (1.0 + np.e**2), rel=1e-12)


def test_inverse_local_time_basics(w_exp):
    t = make_trajectory(w_exp, [1, -1, -1, 1])
    assert inverse_local_time(t, 0, 0, "+") == 0
    assert inverse_local_time(t, 0, 1, "+") == 1
    assert inverse_local_time(t, 0, 2, "+") is None
    t2 = make_trajectory(w_exp, [-1, 1, 1])
    assert inverse_local_time(t2, 0, 1, "+") == 3


def test_range_extremes_examples(w_exp):
    t = make_trajectory(w_exp, [1, -1])
    rho, lam = range_extremes(t, 2)
    assert rho == 0 and lam == 1
    t2 = make_trajectory(w_exp, [-1, 1])
    rho2, lam2 = range_extremes(t2, 2)
    assert rho2 == -1 and lam2 == 0
    rho0, lam0 = range_extremes(t2, 0)
    assert rho0 is None and lam0 is None


def test_range_extremes_only_right(w_exp):
    t = make_trajectory(w_exp, [1, 1])
    rho, lam = range_extremes(t, 2)
    assert rho == 1 and lam is None


@pytest.mark.parametrize("direction", ["plus", "minus", "Plus", "", 1])
def test_direction_must_be_plus_or_minus(w_exp, direction):
    t = make_trajectory(w_exp, [1, -1, 1])
    for run in (lambda: inverse_local_time(t, 0, 0, direction), lambda: extract_eta_sequence(t, 0, direction),
                lambda: vw.kernel_transition_samples(w_exp, 0, direction, 4, seed=1)):
        with pytest.raises(ValueError, match="direction must be"):
            run()


def test_eta_extraction_first_right_departure(w_exp):
    t = make_trajectory(w_exp, [1, 1])
    seq = extract_eta_sequence(t, 0, "+")
    assert seq.values.tolist()[:2] == [0, -1]
    assert seq.taus.tolist()[:2] == [0, 1]


def test_eta_extraction_first_left_departure(w_exp):
    t = make_trajectory(w_exp, [-1, -1])
    seq = extract_eta_sequence(t, 0, "-")
    assert seq.values.tolist()[:2] == [0, -1]


def test_eta_support_constraint(w_exp):
    t = simulate_walk(w_exp, 4000, seed=5)
    for x in (-1, 0, 2):
        for direction in ("+", "-"):
            seq = extract_eta_sequence(t, x, direction)
            diffs = np.diff(seq.values)
            assert (diffs >= -1).all()


def test_inverse_time_decomposition(w_exp):
    # T+_{x,m} = 2 sum_y l+(T, y) - x - 1 whenever attained: the walk ends at x+1, for x of either sign
    t = simulate_walk(w_exp, 3000, seed=21)
    for x, m in ((0, 3), (-2, 2), (-1, 5), (1, 2), (3, 1)):
        T = inverse_local_time(t, x, m, "+")
        assert T is not None
        table = t.local_times_at(T)
        total_plus = sum(table.plus.values())
        assert T == 2 * total_plus - x - 1


def test_extraction_matches_kernel_row(w_exp, kernel_exp):
    # one-step transition frequencies of the extracted chains, pooled over
    # sites (each site's chain is an independent copy of the same kernel)
    from collections import Counter

    t = simulate_walk(w_exp, 200_000, seed=3)
    moves = Counter()
    for x in range(-30, 31):
        for direction in ("+", "-"):
            vals = extract_eta_sequence(t, x, direction).values
            for a, b in zip(vals[:-1], vals[1:]):
                if a == 0:
                    moves[int(b)] += 1
    n = sum(moves.values())
    row = kernel_exp.row(0)
    assert n > 5000
    for v, cnt in moves.items():
        p = row.prob_at(v)
        se = (p * (1 - p) / n) ** 0.5
        assert abs(cnt / n - p) < 4 * se + 1e-3


def test_disjoint_sites_uncorrelated(w_exp):
    # lag-0 correlation between chains extracted at distinct sites
    pairs = []
    for s in range(500):
        t = simulate_walk(w_exp, 400, seed=1000 + s)
        a = extract_eta_sequence(t, 0, "+").values
        b = extract_eta_sequence(t, 1, "+").values
        k = min(len(a), len(b))
        if k >= 3:
            pairs.extend(zip(a[1:k], b[1:k]))
    arr = np.array(pairs, dtype=float)
    n = len(arr)
    assert n > 3000
    corr = np.corrcoef(arr[:, 0], arr[:, 1])[0, 1]
    assert abs(corr) < 3.5 / np.sqrt(n)


def test_enumeration_symmetry(w_exp, w_ramp):
    for w in (w_exp, w_ramp):
        law = exact_position_law(w, 8)
        for x, p in law.items():
            assert p == pytest.approx(law[-x], rel=1e-9)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
