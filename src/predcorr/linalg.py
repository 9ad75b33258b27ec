"""Dense real linear algebra kernels.

Everything downstream (certificates, subproblem solves, step sizes) runs on
the operations here: a pivot-reporting Cholesky positive-definiteness check,
the dominant eigenvalue of a Gram matrix, and the SPD pencil tau*S + W that
every SPD system in the package is solved through, prepared once so that
each solve costs two matrix-vector products. Matrices and vectors are plain
numpy arrays validated on entry and read-only from then on. Sparsity is
used in one way only: a matrix given as blocks on a partition of its
indices (_Blocks: dense, diagonal or scalar blocks) that falls apart into
connected components of its nonzero pattern is labelled from the blocks'
nonzero entries (_Blocks.edges, _component_stacks), gathered into a few
stacks of small blocks, one stack per component size (_Blocks.stacked),
and factored that way (_cholesky_stack), since a block-diagonal matrix
factors as its blocks do; it is applied to a vector the same way
(_BlockDiagonal).

Positive definiteness is always decided by Cholesky pivots with the one
relative tolerance PD_TOL, never by eigensolvers: the pivot sequence is
deterministic and the first nonpositive pivot is exactly the evidence a
failed certificate needs. LAPACK computes the factor; the pivot loop reruns
only when LAPACK's factor does not clear the threshold, and its verdict
names the offending pivot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The one positive-definiteness threshold: relative to 1 + max diagonal for a
# pivot, to 1 + ||S||_max for asymmetry, and to 1 for a pencil eigenvalue d.
PD_TOL = 1e-10


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


def _checked(a, ndim: int, name: str) -> np.ndarray:
    """a as a float array with ndim axes and finite entries; no copy of a float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, marked read-only: data that is validated once must not change afterwards."""
    a.setflags(write=False)
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float array with finite entries, as a read-only copy."""
    return _read_only(_checked(np.array(a, dtype=float), 2, name))


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d float array with finite entries, as a read-only copy."""
    return _read_only(_checked(np.array(a, dtype=float), 1, name))


def check_symmetric(S: np.ndarray, tol: float, name: str = "matrix") -> None:
    """Raise AsymmetryError when ||S - S^T||_max > tol * (1 + ||S||_max)."""
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be square, got shape {S.shape}")
    smax = np.abs(S).max() if S.size else 0.0
    diff = S - S.T
    asym = np.abs(diff, out=diff).max() if S.size else 0.0
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


def cholesky_pd_check(S) -> PDResult:
    """Check symmetric positive definiteness by Cholesky pivots.

    Parameters
    ----------
    S : array_like
        Square matrix, symmetric to within ``PD_TOL * (1 + ||S||_max)``.
        A pivot must exceed ``PD_TOL * (1 + max diagonal)`` to count as
        positive.

    Returns
    -------
    PDResult
        Factor on success, offending pivot on failure.

    LAPACK factors S first, and its factor is accepted when every squared
    diagonal entry exceeds the threshold. Otherwise the pivot loop decides,
    so a failure reports the first pivot at or below the threshold. S is
    read, never copied or changed.
    """
    S = _checked(S, 2, "S")
    check_symmetric(S, PD_TOL, "S")
    if S.shape[0] == 0:
        return PDResult(True, np.zeros((0, 0)), None, None)
    L, first, value = _cholesky_stack(S[None], PD_TOL * (1.0 + float(S.diagonal().max())))
    if first[0] >= 0:
        return PDResult(False, None, int(first[0]), float(value[0]))
    return PDResult(True, L[0], None, None)


def _cholesky_stack(S: np.ndarray, threshold: float) -> tuple:
    """Cholesky pivots of a stack S of shape (k, n, n), n >= 1, of symmetric blocks.

    Returns (L, first, value), one entry per block. first is -1 where every
    pivot exceeds threshold, and L holds that block's factor; otherwise first
    is the index of the block's first pivot at or below threshold and value
    that pivot. LAPACK factors the stack; the pivot loop reruns only the
    blocks whose factor does not clear threshold. S is trusted: finite,
    symmetric, never copied or changed.
    """
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        L = np.full_like(S, np.nan)  # NaN never clears the threshold
        if len(S) > 1:  # LAPACK's error names no block: factor each on its own
            for b, block in enumerate(S):
                try:
                    L[b] = np.linalg.cholesky(block)
                except np.linalg.LinAlgError:
                    pass
    first, value = np.full(len(S), -1), np.zeros(len(S))
    low = np.diagonal(L, axis1=1, axis2=2).min(axis=1)
    for b in np.flatnonzero(~(low ** 2 > threshold)):
        L[b], first[b], value[b] = _pivot_loop(S[b], threshold)
    return L, first, value


def _pivot_loop(S: np.ndarray, threshold: float) -> tuple:
    """(L, first offending index or -1, its pivot) of one block, pivot by pivot."""
    n = S.shape[0]
    L = np.zeros_like(S)
    for j in range(n):
        pivot = S[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= threshold:
            return L, j, float(pivot)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L, -1, 0.0


def _component_stacks(n: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """The connected components of indices 0..n-1 joined by edges, by size.

    Edge e joins rows[e] and cols[e]. Returns one (k, s) index array per
    component size s, sizes ascending: each row is one component, its
    indices ascending, and rows are ordered by their smallest index.
    """
    if n == 0:
        return []
    labels = np.arange(n)  # labels[i] <= i is an index in i's component
    while True:  # each index takes its neighbours' smallest label, then jumps
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    # labels is now the smallest index of each component
    size = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((labels, size))  # stable: indices ascend within a component
    size = size[order]
    cuts = np.flatnonzero(size[1:] != size[:-1]) + 1
    return [g.reshape(-1, size[c]) for g, c in zip(np.split(order, cuts), np.r_[0, cuts])]


class _Blocks:
    """A square matrix given as blocks on a partition of its indices, validated once.

    blocks maps (i, j) to the block on rows i and columns j of the
    partition dims: a 2-d array of shape (dims[i], dims[j]), or, for
    dims[i] == dims[j], a 1-d array (the diagonal) or a scalar c (c I).
    Absent blocks are zero. The matrix is read from its blocks (edges,
    stacked, dense), never formed unless asked for (dense).
    """

    def __init__(self, dims: tuple, blocks: dict, name: str):
        offsets = np.cumsum((0,) + dims).tolist()
        self.n = offsets[-1]
        self.full, self.diagonal = [], []  # (r0, c0, 2-d block); (r0, c0, size, float or 1-d)
        for (i, j), block in blocks.items():
            if not (0 <= i < len(dims) and 0 <= j < len(dims)):
                raise ValueError(f"{name} block ({i}, {j}) is outside {len(dims)} blocks")
            if not isinstance(block, float):  # a float, the common block, skips numpy
                block = np.asarray(block, dtype=float)
                if block.ndim == 0:
                    block = float(block)
            got = () if isinstance(block, float) else block.shape
            shape = (dims[i], dims[j])
            if len(got) < 2 and dims[i] == dims[j]:
                shape = shape[:len(got)]
            if got != shape:
                raise ValueError(f"{name} block ({i}, {j}) must have shape {shape}, got {got}")
            if not (math.isfinite(block) if got == () else np.isfinite(block).all()):
                raise ValueError(f"{name} block ({i}, {j}) contains non-finite entries")
            if len(got) == 2:
                self.full.append((offsets[i], offsets[j], block))
            else:
                self.diagonal.append((offsets[i], offsets[j], dims[i], block))
        self._entries = self._diagonal_entries()

    def _diagonal_entries(self) -> tuple:
        """(rows, cols, values) of the nonzero entries of the scalar and diagonal blocks."""
        if not self.diagonal:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        r0, c0, size, d = zip(*self.diagonal)
        size = np.array(size)
        start = np.cumsum(size) - size  # of each block's run of entries
        at = np.arange(size.sum())
        d = (np.repeat(d, size) if all(isinstance(b, float) for b in d)
             else np.concatenate([np.broadcast_to(b, (k,)) for k, b in zip(size, d)]))
        on = d != 0
        return ((np.repeat(np.subtract(r0, start), size) + at)[on],
                (np.repeat(np.subtract(c0, start), size) + at)[on], d[on])

    def edges(self) -> tuple:
        """(rows, cols) of edges joining the indices the nonzero entries join.

        A 2-d block without a zero joins all its rows and columns, so a star
        on them stands in for its entries.
        """
        rows, cols = [self._entries[0]], [self._entries[1]]
        for r0, c0, block in self.full:
            on = block != 0
            p, q = block.shape
            if on.all():
                r = np.r_[np.arange(p), np.zeros(q, dtype=np.intp)]
                c = np.r_[np.zeros(p, dtype=np.intp), np.arange(q)]
            else:
                r, c = np.divmod(np.flatnonzero(on), q)
            rows.append(r0 + r)
            cols.append(c0 + c)
        return np.concatenate(rows), np.concatenate(cols)

    def dense(self) -> np.ndarray:
        """The n x n matrix; a scalar or diagonal block d enters as d * I."""
        A = np.zeros((self.n, self.n))
        for r0, c0, size, d in self.diagonal:
            A[r0:r0 + size, c0:c0 + size] = d * np.eye(size)
        for r0, c0, block in self.full:
            A[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
        return A

    def stacked(self, stacks: list) -> list:
        """The (k, s, s) blocks on each of stacks, the components of _component_stacks.

        The matrix is zero between them. A 2-d block is read at the
        positions of each stack that fall inside it.
        """
        rows, cols, values = self._entries
        stack, member, pos = (np.empty(self.n, dtype=np.intp) for _ in range(3))
        for t, idx in enumerate(stacks):
            stack[idx] = t
            member[idx] = np.arange(len(idx))[:, None]
            pos[idx] = np.arange(idx.shape[1])
        out = []
        for t, idx in enumerate(stacks):
            B = np.zeros((len(idx), idx.shape[1], idx.shape[1]))
            on = stack[rows] == t
            r, c = rows[on], cols[on]
            B[member[r], pos[r], pos[c]] = values[on]
            R, C = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
            for r0, c0, block in self.full:
                p, q = block.shape
                inside = (R >= r0) & (R < r0 + p) & (C >= c0) & (C < c0 + q)
                B[inside] = block[R[inside] - r0, C[inside] - c0]
            out.append(B)
        return out


# Up to this dimension a dense matvec beats the stacked one (per-stack gather,
# einsum and scatter); measurements in CHANGES.md.
_DENSE_DIM = 256


class _BlockDiagonal:
    """A square matrix that is zero between the components of _component_stacks.

    blocks[i] is the (k, s, s) stack of its blocks on the components
    stacks[i]. One component, or a dimension up to _DENSE_DIM, is held as
    the dense matrix (the one block, or scattered from the blocks), and
    op @ x is a plain matrix-vector product; otherwise op @ x multiplies
    each stack of blocks, and no dim x dim array exists.
    """

    def __init__(self, stacks: list, blocks: list):
        self.stacks, self.blocks = stacks, blocks
        self.dim = sum(idx.size for idx in stacks)
        self._matrix = None
        if len(blocks) == 1 and len(blocks[0]) == 1:
            self._matrix = blocks[0][0]
        elif self.dim <= _DENSE_DIM:
            self._matrix = _read_only(self.dense())

    @property
    def shape(self) -> tuple:
        return (self.dim, self.dim)

    def dense(self) -> np.ndarray:
        """The matrix as a dim x dim array."""
        if self._matrix is not None:
            return self._matrix
        A = np.zeros((self.dim, self.dim))
        for idx, B in zip(self.stacks, self.blocks):
            A[idx[:, :, None], idx[:, None, :]] = B
        return A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix @ x
        y = np.empty_like(x)
        for idx, B in zip(self.stacks, self.blocks):
            y[idx] = np.einsum("kij,kj->ki", B, x[idx])
        return y


class SPDPencil:
    """The systems (tau*S + W) x = rhs for every tau in (0, 1], prepared once.

    B = S + W, the tau = 1 matrix, is factored as L L^T by cholesky_pd_check,
    and L^-1 S L^-T = U diag(d) U^T is eigendecomposed. With V = L^-T U,
    tau*S + W = B - (1-tau)*S = V^-T diag(1 - (1-tau)*d) V^-1, so each solve is
    x = V ((V^T rhs) / (1 - (1-tau)*d)): two matrix-vector products and no
    factorization. Every such system is SPD exactly when B is and every
    d <= 1, which holds whenever W is PSD; both are checked here, once.
    W may be singular (a Gram matrix of a wide block) as long as B is not.

    Raises
    ------
    NotPositiveDefiniteError
        If B fails the pivot check.
    numpy.linalg.LinAlgError
        If some d exceeds 1 + PD_TOL, so small tau gives an indefinite system.
    """

    def __init__(self, S, W):
        res = cholesky_pd_check(S + W)
        if not res.positive_definite:
            raise NotPositiveDefiniteError(res.pivot_index, res.pivot_value)
        L = res.factor
        d, U = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, S).T))
        if d[-1] > 1.0 + PD_TOL:
            raise np.linalg.LinAlgError(
                f"tau*S + W is indefinite for tau below {1.0 - 1.0 / d[-1]:.6e}")
        self.d = _read_only(d)
        self.V = _read_only(np.linalg.solve(L.T, U))

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """x with (tau*S + W) x = rhs; rhs is trusted (1-d, finite, length n)."""
        return self.V @ ((self.V.T @ rhs) / (1.0 - (1.0 - tau) * self.d))


def spectral_radius_gram(A) -> float:
    """Largest eigenvalue of A^T A, the squared spectral norm of A.

    Computed from the largest singular value of A, so the result does not
    depend on a start vector: 0.0 exactly for the zero matrix, inf on overflow.
    """
    A = as_matrix(A, "A")
    if not np.any(A):
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(A, 2) ** 2)
