import numpy as np
import pytest
from hypothesis import given, strategies as st

from predcorr import DEFAULT_TAU_INIT, tau_at, tau_next


def test_closed_form_matches_recurrence():
    # tau_init seeds index -1; tau^0 = tau_next(tau_init)
    for tau0 in (0.1, 0.5, 0.9):
        tau = tau_next(tau0)
        for k in range(200):
            assert tau_at(tau0, k) == pytest.approx(tau, rel=1e-14)
            tau = tau_next(tau)


def test_closed_form_value():
    # tau^k = 1/(1/tau_init + k + 1)
    assert tau_at(0.5, 0) == pytest.approx(1.0 / 3.0)
    assert tau_at(0.5, 3) == pytest.approx(1.0 / 6.0)
    assert tau_at(0.9, 0) == pytest.approx(0.9 / 1.9)


def test_decay_envelope():
    # k * tau^k -> 1 with deviation at most (1 + 1/tau_init) / k
    for tau0 in (0.5, 0.9):
        for k in (10, 100, 10_000):
            assert abs(k * tau_at(tau0, k) - 1.0) <= (1.0 + 1.0 / tau0) / k


def test_validation():
    for bad in (0.0, -0.1, 1.0, 1.5, np.nan, 5e-324):  # 1/5e-324 overflows
        with pytest.raises(ValueError):
            tau_at(bad, 0)
    with pytest.raises(ValueError):
        tau_at(0.5, -1)
    with pytest.raises(ValueError):
        tau_next(0.0)
    with pytest.raises(ValueError):
        tau_next(5e-324)


def test_schedule_iteration():
    vals, tau = [], 0.5
    for _ in range(5):
        tau = tau_next(tau)
        vals.append(tau)
    want = [1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0, 1.0 / 7.0]
    np.testing.assert_allclose(vals, want, rtol=1e-15)
    assert DEFAULT_TAU_INIT == 0.5


@given(st.floats(0.01, 0.99), st.integers(0, 1000))
def test_recurrence_invariant(tau0, k):
    # 1/tau rises by exactly 1 each step
    t = tau_at(tau0, k)
    t_next = tau_at(tau0, k + 1)
    assert 1.0 / t_next == pytest.approx(1.0 / t + 1.0, rel=1e-12)
