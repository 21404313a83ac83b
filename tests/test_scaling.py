import pytest
from hypothesis import given
from hypothesis import strategies as st

from srrw import beta_n, theta


def test_theta_values():
    assert theta(4.0, 2.0) == 1.0
    assert theta(10.0, 0.0) == 5.0
    assert theta(2.0, -1.0) == 0.5


def test_beta_endpoints():
    s2 = 0.7
    assert beta_n(100, 0, s2) == pytest.approx(4 * s2 / 3)
    assert beta_n(100, 100, s2) == pytest.approx(16 * s2 / 3)
    assert beta_n(100, -100, s2) == pytest.approx(16 * s2 / 3)


@given(n=st.integers(10, 10_000), frac=st.floats(0.0, 1.0), s2=st.floats(0.1, 2.0))
def test_beta_range(n, frac, s2):
    x = int(frac * n)
    b = beta_n(n, x, s2)
    assert 4 * s2 / 3 - 1e-9 <= b <= 16 * s2 / 3 + 1e-9
