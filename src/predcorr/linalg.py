"""Dense real linear algebra kernels.

Everything downstream (certificates, subproblem solves, step sizes) runs on
the three operations here: a pivot-reporting Cholesky positive-definiteness
check, the dominant eigenvalue of a Gram matrix, and an SPD linear solve.
Matrices and vectors are plain numpy arrays validated on entry; problems at
the intended scale are small and dense, so there is no sparse path.

Positive definiteness is always decided by Cholesky pivots with a relative
tolerance, never by eigensolvers: the pivot sequence is deterministic and the
first nonpositive pivot is exactly the evidence a failed certificate needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AsymmetryError(ValueError):
    """A matrix expected to be symmetric differs from its transpose.

    Raised instead of returning "not positive definite" because asymmetry
    beyond tolerance signals a wrongly constructed input, not a failed
    definiteness condition.
    """


class NotPositiveDefiniteError(ValueError):
    """An SPD solve was attempted on a matrix that failed the pivot check."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} = {pivot_value:.6e}"
        )


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float array with finite entries."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d float array with finite entries."""
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_symmetric(S: np.ndarray, tol: float, name: str = "matrix") -> None:
    """Raise AsymmetryError when ||S - S^T||_max > tol * (1 + ||S||_max)."""
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    smax = np.abs(S).max() if S.size else 0.0
    asym = np.abs(S - S.T).max() if S.size else 0.0
    if asym > tol * (1.0 + smax):
        raise AsymmetryError(
            f"{name} asymmetry {asym:.3e} exceeds tolerance {tol * (1.0 + smax):.3e}"
        )


@dataclass(frozen=True)
class PDResult:
    """Outcome of a Cholesky positive-definiteness check.

    When positive_definite is true, factor holds the lower-triangular L with
    S = L L^T. Otherwise pivot_index / pivot_value report the first pivot
    that fell at or below the threshold.
    """

    positive_definite: bool
    factor: np.ndarray | None
    pivot_index: int | None
    pivot_value: float | None


def cholesky_pd_check(S, tol: float = 1e-10) -> PDResult:
    """Check symmetric positive definiteness by Cholesky pivots.

    Parameters
    ----------
    S : array_like
        Square matrix, symmetric to within ``tol * (1 + ||S||_max)``.
    tol : float
        Relative tolerance. A pivot must exceed ``tol * (1 + max diagonal)``
        to count as positive.

    Returns
    -------
    PDResult
        Factor on success, offending pivot on failure.
    """
    S = as_matrix(S, "S")
    check_symmetric(S, tol, "S")
    n = S.shape[0]
    if n == 0:
        return PDResult(True, np.zeros((0, 0)), None, None)
    threshold = tol * (1.0 + float(S.diagonal().max()))
    L = np.zeros_like(S)
    for j in range(n):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= threshold:
            return PDResult(False, None, j, float(pivot))
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return PDResult(True, L, None, None)


def solve_spd(S, rhs, tol: float = 1e-10) -> np.ndarray:
    """Solve S x = rhs for symmetric positive definite S.

    The definiteness check is the same pivot test as cholesky_pd_check; a
    failure raises NotPositiveDefiniteError naming the pivot. The solve uses
    the computed triangular factor.
    """
    rhs = as_vector(rhs, "rhs")
    res = cholesky_pd_check(S, tol)
    if not res.positive_definite:
        raise NotPositiveDefiniteError(res.pivot_index, res.pivot_value)
    y = np.linalg.solve(res.factor, rhs)
    return np.linalg.solve(res.factor.T, y)


def spectral_radius_gram(A) -> float:
    """Largest eigenvalue of A^T A, the squared spectral norm of A.

    Computed from the largest singular value of A, so the result does not
    depend on a start vector. Returns 0.0 exactly for the zero matrix.
    """
    A = as_matrix(A, "A")
    if not np.any(A):
        return 0.0
    return float(np.linalg.norm(A, 2) ** 2)
