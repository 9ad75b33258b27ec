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



def _diagonal_draw(rng, n):
    # entries of both signs, with some exact zeros
    d = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, size=n)
    d[rng.random(n) < 0.2] = 0.0
    return d


def _outcome(call):
    """(value, None) of call(), or (None, (type, message prefix, pivot index)) if it raised."""
    try:
        return call(), None
    except (NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
        prefix = str(exc).split(":")[0].split(" below")[0]
        return None, (type(exc), prefix, getattr(exc, "pivot_index", None), exc)


# pivots just above and at the PD_TOL threshold, and d just above 1 + PD_TOL
EDGES = [([1.0, 3e-10], [0.0, 0.0]), ([1.0, 1e-10], [0.0, 0.0]),
         ([1.0, 1.0], [0.0, -1e-12]), ([1.0, 1.0], [0.0, -1e-9])]


@pytest.mark.parametrize("case", [*range(40), *EDGES])
def test_diagonal_path_matches_dense_path(case):
    # a _Diagonal S, W or A takes the elementwise path; the same matrices as
    # arrays take the dense one. Both agree to 1e-12 relative, and a pencil
    # that is refused is refused alike: same error, message and pivot.
    from predcorr.linalg import _Diagonal
    rng = np.random.default_rng(case if isinstance(case, int) else 0)
    if isinstance(case, int):
        n = int(rng.integers(1, 8))
        s, w = _diagonal_draw(rng, n), _diagonal_draw(rng, n)
        if case % 2:  # mostly positive, so that most pencils are SPD
            s, w = np.abs(s), np.abs(w) + 0.1 * rng.random(n)
    else:
        s, w = map(np.array, case)
        n = s.size
    assert spectral_radius_gram(_Diagonal(s)) == pytest.approx(
        spectral_radius_gram(np.diag(s)), rel=1e-12, abs=0.0)

    diag, dense = (_outcome(lambda: SPDPencil(*ops)) for ops in (
        (_Diagonal(s), _Diagonal(w)), (np.diag(s), np.diag(w))))
    if dense[1] is not None:
        assert diag[1] is not None
        assert diag[1][:3] == dense[1][:3]
        if isinstance(dense[1][3], NotPositiveDefiniteError):
            assert diag[1][3].pivot_value == pytest.approx(
                dense[1][3].pivot_value, rel=1e-12, abs=0.0)
        return
    assert diag[1] is None
    assert diag[0].V is None and dense[0].V is not None
    np.testing.assert_allclose(np.sort(diag[0].d), dense[0].d, rtol=1e-12, atol=1e-15)
    rhs = rng.normal(size=n)
    for tau in (1.0, 0.5, 1e-3):
        want = dense[0].solve(rhs, tau)
        np.testing.assert_allclose(diag[0].solve(rhs, tau), want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(10))
def test_diagonal_operators_match_arrays(seed):
    # set-up applies +, -, scalar *, @ and .T to a held matrix whatever its
    # form; on a _Diagonal they give the entries the arrays give, bit for
    # bit, and stay diagonal unless an array takes part
    from predcorr.linalg import (_dense, _Diagonal, _identity_fit, _positive_definite,
                                 _smallest_eigenvalue)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    p, q = _diagonal_draw(rng, n), _diagonal_draw(rng, n)
    P, Q, Dp, Dq = _Diagonal(p), _Diagonal(q), np.diag(p), np.diag(q)
    X, x, c = rng.normal(size=(n, n)), rng.normal(size=n), float(rng.normal())
    for got, want in ((P + Q, Dp + Dq), (P - Q, Dp - Dq), (c * P, c * Dp), (P * c, Dp * c),
                      (np.float64(c) * P, c * Dp), (-P, -Dp), (P.T @ Q, Dp.T @ Dq)):
        assert isinstance(got, _Diagonal)
        np.testing.assert_array_equal(_dense(got), want)
    for got, want in ((P + X, Dp + X), (X + P, X + Dp), (P - X, Dp - X), (X - P, X - Dp)):
        assert type(got) is np.ndarray
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(P @ x, Dp @ x)
    np.testing.assert_array_equal(P.diagonal(), Dp.diagonal())
    assert P.trace() == Dp.trace() and P.shape == Dp.shape
    assert _identity_fit(P) == _identity_fit(Dp)
    assert _positive_definite(P) == _positive_definite(Dp)
    assert _smallest_eigenvalue(P) == pytest.approx(_smallest_eigenvalue(Dp), rel=1e-12)
