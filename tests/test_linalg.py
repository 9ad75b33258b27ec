import numpy as np
import pytest

from predcorr import (
    AsymmetryError,
    NotPositiveDefiniteError,
    cholesky_pd_check,
    spectral_radius_gram,
)
from predcorr.linalg import SPDPencil, check_symmetric


def test_check_symmetric_accepts_near_symmetric():
    S = np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])
    check_symmetric(S, 1e-10, "S")  # within tolerance: no exception


def test_check_symmetric_rejects():
    with pytest.raises(AsymmetryError):
        check_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-8, "Q")
    with pytest.raises(ValueError):
        check_symmetric(np.zeros((2, 3)), 1e-8, "R")


def test_pd_check_pivots():
    # [[1,2],[2,1]]: first pivot 1, Schur complement 1 - 4 = -3
    res = cholesky_pd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not res.positive_definite
    assert res.pivot_index == 1
    assert res.pivot_value == pytest.approx(-3.0)

    S = np.array([[4.0, 1.0], [1.0, 3.0]])
    res = cholesky_pd_check(S)
    assert res.positive_definite
    np.testing.assert_allclose(res.factor @ res.factor.T, S, rtol=1e-14)


def _loop_pivots(S, tol=1e-10):
    """(index, value) of the first pivot at or below the threshold, by the plain loop."""
    threshold = tol * (1.0 + S.diagonal().max())
    L = np.zeros_like(S)
    for j in range(S.shape[0]):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= threshold:
            return j, pivot
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return None


def _six_by_six(last_diag):
    # G G' with G lower triangular: pivot 4 is G[4, 4]^2 exactly in exact arithmetic
    G = np.tril(np.arange(1.0, 37.0).reshape(6, 6) % 7 + 1.0)
    G[4, 4] = last_diag
    return G @ G.T


@pytest.mark.parametrize("S", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),  # LAPACK fails as well
    _six_by_six(0.0),                     # singular: LAPACK fails at pivot 4
    _six_by_six(1e-7),                    # LAPACK passes, pivot 4 under the threshold
], ids=["2x2-indefinite", "6x6-singular", "6x6-tiny-pivot"])
def test_pd_check_reports_the_loops_pivot(S):
    index, value = _loop_pivots(S)
    res = cholesky_pd_check(S)
    assert not res.positive_definite and res.factor is None
    assert res.pivot_index == index
    assert res.pivot_value == value


def test_pd_check_passing_factor_and_input_untouched():
    S = _six_by_six(1.5)
    before = S.copy()
    res = cholesky_pd_check(S)
    assert res.positive_definite
    np.testing.assert_allclose(res.factor @ res.factor.T, S, rtol=1e-13)
    assert np.array_equal(np.tril(res.factor), res.factor)
    assert np.array_equal(S, before)


def test_pencil_zero_weight_oracle():
    # W = 0 at tau = 1 is the plain SPD solve
    # [[4,1],[1,3]] x = (1,2)  =>  x = (1/11, 7/11)
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = SPDPencil(A, np.zeros((2, 2))).solve(np.array([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)


def test_pencil_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SPDPencil(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)))


def test_spectral_radius_gram_exact_cases():
    # A = [[1,1],[0,1]]: A^T A has eigenvalues (3 +/- sqrt(5))/2
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    want = (3.0 + np.sqrt(5.0)) / 2.0
    assert spectral_radius_gram(A) == pytest.approx(want, rel=1e-9)

    # diagonal case is exact
    A = np.diag([3.0, -7.0, 2.0])
    assert spectral_radius_gram(A) == pytest.approx(49.0, rel=1e-9)

    assert spectral_radius_gram(np.zeros((3, 2))) == 0.0


def test_spectral_radius_gram_second_start():
    # A^T A = [[2,-1],[-1,2]]: the all-ones start vector is an eigenvector
    # of the *smaller* eigenvalue (1), so the orthogonal second start has
    # to find the dominant eigenvalue 3.
    A = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    G = A.T @ A
    np.testing.assert_allclose(G, [[2.0, -1.0], [-1.0, 2.0]])
    assert spectral_radius_gram(A) == pytest.approx(3.0, rel=1e-9)

