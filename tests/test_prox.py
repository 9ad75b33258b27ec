import numpy as np
import pytest
from hypothesis import given, strategies as st

from predcorr import (
    BoxIndicator,
    L1Penalty,
    NotPositiveDefiniteError,
    ProxOp,
    QuadraticCost,
    SimplexIndicator,
    project_box,
    project_simplex,
    soft_threshold,
)


def test_soft_threshold_componentwise():
    z = np.array([2.0, -0.3, 0.5, -2.0, 0.0])
    np.testing.assert_allclose(soft_threshold(z, 0.5), [1.5, 0.0, 0.0, -1.5, 0.0])
    np.testing.assert_allclose(soft_threshold(z, 0.0), z)


def test_project_box():
    z = np.array([-1.0, 0.5, 3.0])
    np.testing.assert_allclose(project_box(z, 0.0, 1.0), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        project_box(z, 1.0, 0.0)


def test_project_simplex_known_points():
    np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5, 0.5])),
                               [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(project_simplex(np.array([0.3, 0.7])), [0.3, 0.7])


@given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
def test_project_simplex_is_feasible_and_optimal(vals):
    z = np.array(vals)
    p = project_simplex(z)
    assert np.all(p >= -1e-12)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-9)
    # projection beats a few grid candidates on the simplex
    rng = np.random.default_rng(0)
    best = np.linalg.norm(p - z)
    for _ in range(20):
        c = rng.dirichlet(np.ones(len(z)))
        assert np.linalg.norm(c - z) >= best - 1e-9


def test_quadratic_prox_oracle():
    # min_x 0.5 x'Sx - c'x + (rho/2)||x - z||^2  =>  (S + rho I) x = c + rho z
    S = np.array([[2.0, 0.0], [0.0, 4.0]])
    c = np.array([1.0, 1.0])
    z = np.array([1.0, -1.0])
    x = QuadraticCost(S, c).prox(z, 2.0)
    np.testing.assert_allclose(x, [(1.0 + 2.0) / 4.0, (1.0 - 2.0) / 6.0], rtol=1e-14)
    # S + rho I indefinite: the pencil's pivot check refuses it
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticCost(np.array([[1.0, 2.0], [2.0, 1.0]]), c).prox(z, 0.5)


def test_l1_penalty():
    f = L1Penalty(0.5)
    z = np.array([2.0, -0.2])
    np.testing.assert_allclose(f.prox(z, 1.0), [1.5, 0.0])
    # prox scales the threshold by 1/rho
    np.testing.assert_allclose(f.prox(z, 2.0), [1.75, 0.0])
    assert f.value(np.array([1.0, -2.0])) == pytest.approx(1.5)


def test_indicators_value_convention():
    box = BoxIndicator(0.0, 1.0)
    assert box.value(np.array([0.5])) == 0.0
    assert box.value(np.array([2.0])) == 0.0  # indicator reported as 0 in objectives
    np.testing.assert_allclose(box.prox(np.array([2.0, -1.0]), 1.0), [1.0, 0.0])

    simp = SimplexIndicator()
    assert simp.value(np.array([0.2, 0.8])) == 0.0
    np.testing.assert_allclose(simp.prox(np.array([0.5, 0.5]), 3.0), [0.5, 0.5])


def test_quadratic_cost():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, 0.0])
    f = QuadraticCost(S, c)
    x = np.array([1.0, 1.0])
    assert f.value(x) == pytest.approx(0.5 * x @ S @ x - c @ x)
    np.testing.assert_allclose(f.grad(x), S @ x - c)
    # prox solves (S + rho I) x = c + rho z
    z = np.array([0.0, 1.0])
    got = f.prox(z, 1.0)
    np.testing.assert_allclose((S + np.eye(2)) @ got, c + z, rtol=1e-13)
    with pytest.raises(Exception):
        QuadraticCost(np.array([[1.0, 1.0], [0.0, 1.0]]), c)


@pytest.mark.parametrize("build", [
    lambda: L1Penalty(float("nan")),
    lambda: L1Penalty(float("inf")),
    lambda: L1Penalty(-0.5),
    lambda: BoxIndicator([float("nan"), 0.0], [1.0, 1.0]),
    lambda: BoxIndicator(0.0, float("nan")),
    lambda: QuadraticCost(np.eye(2), np.zeros(2), float("nan")),
    lambda: QuadraticCost(np.eye(2), np.zeros(2), float("-inf")),
], ids=["l1-nan", "l1-inf", "l1-negative", "box-lo-nan", "box-hi-nan",
        "quadratic-const-nan", "quadratic-const-inf"])
def test_constructors_reject_non_finite_parameters(build):
    # a bad parameter fails where the objective is built, not inside a run
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("call", [
    lambda: soft_threshold(np.ones(2), float("nan")),
    lambda: soft_threshold(np.ones(2), float("inf")),
    lambda: project_box(np.ones(2), float("nan"), 1.0),
    lambda: project_box(np.ones(2), 0.0, [1.0, float("nan")]),
], ids=["threshold-nan", "threshold-inf", "box-lo-nan", "box-hi-nan"])
def test_operators_reject_nan_parameters(call):
    # a NaN weight or bound would otherwise give an all-NaN vector
    with pytest.raises(ValueError):
        call()


def test_box_allows_infinite_bounds():
    box = BoxIndicator([-np.inf, 0.0], [1.0, np.inf])
    np.testing.assert_allclose(box.prox(np.array([-5.0, 5.0]), 1.0), [-5.0, 5.0])


def test_json_round_trip():
    ops = [
        L1Penalty(0.25),
        BoxIndicator(-1.0, 2.0),
        SimplexIndicator(),
        QuadraticCost(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, -1.0])),
    ]
    for op in ops:
        doc = op.to_json()
        back = ProxOp.from_json(doc)
        z = np.array([0.7, -0.4])
        np.testing.assert_allclose(back.prox(z, 1.3), op.prox(z, 1.3), rtol=1e-14)
        np.testing.assert_allclose(back.value(z), op.value(z), rtol=1e-14)
    with pytest.raises(ValueError):
        ProxOp.from_json({"kind": "mystery"})


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
       st.floats(0.01, 10.0), st.floats(0.1, 10.0))
def test_l1_prox_optimality(vals, mu, rho):
    # subgradient condition: rho (x - z) + mu * s = 0 with s in sign(x)
    z = np.array(vals)
    x = L1Penalty(mu).prox(z, rho)
    r = rho * (x - z)
    for xi, ri in zip(x, r):
        if xi > 0:
            assert ri == pytest.approx(-mu, rel=1e-9, abs=1e-9)
        elif xi < 0:
            assert ri == pytest.approx(mu, rel=1e-9, abs=1e-9)
        else:
            assert abs(ri) <= mu + 1e-9
