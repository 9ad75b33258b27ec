import numpy as np
import pytest

from predcorr import (
    AsymmetryError,
    cholesky_pd_check,
    solve_spd,
    spectral_radius_gram,
)
from predcorr.linalg import check_symmetric


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


def test_solve_spd_oracle():
    # [[4,1],[1,3]] x = (1,2)  =>  x = (1/11, 7/11)
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = solve_spd(A, np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-14)


def test_solve_spd_rejects_indefinite():
    from predcorr import NotPositiveDefiniteError
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


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

