"""Dense real linear algebra kernels.

Everything downstream (certificates, subproblem solves, step sizes) runs on
the operations here: a pivot-reporting Cholesky positive-definiteness check,
the dominant eigenvalue of a Gram matrix, and the SPD pencil tau*S + W that
every SPD system in the package is solved through, prepared once so that
each solve costs two matrix-vector products, or one division when S and W
are diagonal. Matrices and vectors are plain numpy arrays validated on
entry and read-only from then on. Structure is used in two ways, each
decided from the data where it enters:

- A square matrix that is zero off its diagonal is held as its diagonal
  (_held, _Diagonal): its products, its Gram matrix, its spectral norm and
  a pencil whose S and W are both diagonal are elementwise, and no n x n
  array is formed from it. Any other matrix stays a dense array. Other
  modules use a held matrix through the operators an array has (@, +, -,
  scalar *, .T) and the helpers here that answer for either form, so
  only this module reads the diagonal.
- A matrix given as blocks on a partition of its indices (_Blocks: dense,
  diagonal or scalar blocks) that falls apart into connected components
  of its nonzero pattern is labelled from the blocks' nonzero entries
  (_Blocks.edges, _component_stacks), gathered into a few stacks of small
  blocks, one stack per component size (_Blocks.stacked), and factored
  that way (_cholesky_stack), since a block-diagonal matrix factors as its
  blocks do; it is applied to a vector the same way (_BlockDiagonal).

Positive definiteness is always decided by Cholesky pivots with the one
relative tolerance PD_TOL, never by eigensolvers: the pivot sequence is
deterministic and the first nonpositive pivot is exactly the evidence a
failed certificate needs. LAPACK computes the factor; the pivot loop reruns
only when LAPACK's factor does not clear the threshold, and its verdict
names the offending pivot. The pivots of a diagonal matrix are its entries.
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
    """a, marked read-only: data that is validated once must not change afterwards.

    A _Diagonal is returned as it is; its diagonal is read-only already.
    """
    if isinstance(a, np.ndarray):
        a.setflags(write=False)
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d float array with finite entries, as a read-only copy."""
    return _read_only(_checked(np.array(a, dtype=float), 2, name))


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d float array with finite entries, as a read-only copy."""
    return _read_only(_checked(np.array(a, dtype=float), 1, name))


class _Diagonal:
    """A square matrix that is zero off its diagonal, held as its diagonal d (read-only).

    It takes part in the arithmetic that set-up does on matrices, so that
    code reads the same for both forms: op @ x is d * x for a vector x, and
    a _Diagonal for a _Diagonal x, so op.T @ op is its Gram matrix (op.T is
    op); op + X and op - X are a _Diagonal for a _Diagonal X and the dense
    array for an array X, on either side; c * op and -op scale d; and
    diagonal() and trace() answer as an array's do. No n x n array is
    formed unless an array is added or _dense asks for one.
    """

    __array_ufunc__ = None  # an array on the left defers to the reflected methods here

    def __init__(self, d: np.ndarray):
        self.d = _read_only(d)

    @property
    def shape(self) -> tuple:
        return (self.d.size, self.d.size)

    @property
    def T(self) -> "_Diagonal":
        return self

    def diagonal(self) -> np.ndarray:
        return self.d

    def trace(self):
        return self.d.sum()

    def __matmul__(self, x):
        if isinstance(x, _Diagonal):
            return _Diagonal(self.d * x.d)
        return self.d * x

    def __add__(self, other):
        if isinstance(other, _Diagonal):
            return _Diagonal(self.d + other.d)
        return np.diag(self.d) + other

    def __radd__(self, other):
        return other + np.diag(self.d)

    def __sub__(self, other):
        if isinstance(other, _Diagonal):
            return _Diagonal(self.d - other.d)
        return np.diag(self.d) - other

    def __rsub__(self, other):
        return other - np.diag(self.d)

    def __mul__(self, c):
        return _Diagonal(self.d * c)

    def __rmul__(self, c):
        return _Diagonal(c * self.d)

    def __neg__(self):
        return _Diagonal(-self.d)


def _held(A: np.ndarray):
    """A square 2-d array that is zero off its diagonal as a _Diagonal, else A as it is.

    The one check that decides the diagonal path. It runs where problem
    data enters (a spec's matrices, a quadratic's S); what is derived from
    held data keeps its form.
    """
    if (A.ndim == 2 and A.shape[0] == A.shape[1]
            and np.count_nonzero(A) == np.count_nonzero(A.diagonal())):
        return _Diagonal(A.diagonal())
    return A


def _entries(op) -> np.ndarray:
    """The stored entries of a held matrix: a _Diagonal's diagonal, or the array."""
    return op.d if isinstance(op, _Diagonal) else op


def _dense(op) -> np.ndarray:
    """A held matrix as an array: np.diag of a _Diagonal's diagonal, or the array."""
    return np.diag(op.d) if isinstance(op, _Diagonal) else op


def _positive_definite(op) -> bool:
    """cholesky_pd_check's verdict on a held matrix; a diagonal's pivots are its entries."""
    if isinstance(op, _Diagonal):
        return _diagonal_pivots(op.d)[0] < 0
    return cholesky_pd_check(op).positive_definite


def _smallest_eigenvalue(op) -> float:
    """The smallest eigenvalue of a symmetric held matrix: a diagonal's smallest entry."""
    if isinstance(op, _Diagonal):
        return float(op.d.min(initial=np.inf))
    return float(np.min(np.linalg.eigvalsh(op)))


def _identity_fit(W) -> tuple:
    """(rho, spread) of a weight W against rho*I: rho = trace(W) / n, spread = max |W - rho I|.

    W is a scalar (rho itself, spread 0), an array or a _Diagonal.
    """
    if np.isscalar(W):
        return float(W), 0.0
    if isinstance(W, _Diagonal):
        rho = float(W.trace()) / W.d.size
        return rho, np.max(np.abs(W.d - rho))
    W = np.asarray(W)
    rho = float(np.trace(W)) / len(W)
    return rho, np.max(np.abs(W - rho * np.eye(len(W))))


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


def _diagonal_pivots(b: np.ndarray) -> tuple:
    """(first, value) of the Cholesky pivots of diag(b), which are b's entries.

    first is -1 when every b_i exceeds PD_TOL * (1 + max b), the threshold
    of cholesky_pd_check; otherwise it is the first index at or below it,
    and value is that b_i.
    """
    low = np.flatnonzero(~(b > PD_TOL * (1.0 + b.max(initial=-np.inf))))
    return (int(low[0]), float(b[low[0]])) if low.size else (-1, 0.0)


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
    dims[i] == dims[j], a 1-d array or a _Diagonal (the diagonal) or a
    scalar c (c I).
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
                block = np.asarray(_entries(block), dtype=float)
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
    stacks[i]. One component is held as the dense matrix (the one block).
    Up to _DENSE_DIM the blocks are scattered into the dense matrix on the
    first op @ x or dense() call, and op @ x is a plain matrix-vector
    product from then on; otherwise op @ x multiplies each stack of blocks,
    and no dim x dim array exists.
    """

    def __init__(self, stacks: list, blocks: list):
        self.stacks, self.blocks = stacks, blocks
        self.dim = sum(idx.size for idx in stacks)
        self._matrix = blocks[0][0] if len(blocks) == 1 and len(blocks[0]) == 1 else None

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
        if self.dim <= _DENSE_DIM:
            self._matrix = _read_only(A)
        return A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self._matrix is not None or self.dim <= _DENSE_DIM:
            return self.dense() @ x
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

    When S and W are both given as _Diagonal (held by _held where the data
    entered), the pencil holds their diagonals s and w instead (V is None):
    B's pivots are s + w, d = s / (s + w), and each solve is
    rhs / (tau*s + w). The checks and their errors are the dense path's.
    Arrays take the dense path, whatever their entries.

    Raises
    ------
    NotPositiveDefiniteError
        If B fails the pivot check.
    numpy.linalg.LinAlgError
        If some d exceeds 1 + PD_TOL, so small tau gives an indefinite system.
    """

    def __init__(self, S, W):
        if isinstance(S, _Diagonal) and isinstance(W, _Diagonal):
            self.s, self.w, self.V = S.d, W.d, None
            b = _checked(self.s + self.w, 1, "S")
            first, value = _diagonal_pivots(b)
            if first >= 0:
                raise NotPositiveDefiniteError(first, value)
            d = self.s / b
        else:
            S, W = _dense(S), _dense(W)
            res = cholesky_pd_check(S + W)
            if not res.positive_definite:
                raise NotPositiveDefiniteError(res.pivot_index, res.pivot_value)
            L = res.factor
            d, U = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, S).T))
            self.V = _read_only(np.linalg.solve(L.T, U))
        top = d.max(initial=-np.inf)
        if top > 1.0 + PD_TOL:
            raise np.linalg.LinAlgError(
                f"tau*S + W is indefinite for tau below {1.0 - 1.0 / top:.6e}")
        self.d = _read_only(d)

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """x with (tau*S + W) x = rhs; rhs is trusted (1-d, finite, length n)."""
        if self.V is None:
            return rhs / (tau * self.s + self.w)
        return self.V @ ((self.V.T @ rhs) / (1.0 - (1.0 - tau) * self.d))


def spectral_radius_gram(A) -> float:
    """Largest eigenvalue of A^T A, the squared spectral norm of A.

    Computed from the largest singular value of A, so the result does not
    depend on a start vector: 0.0 exactly for the zero matrix, inf on overflow.
    A _Diagonal A (see _held) gives max d_i^2 without a decomposition.
    """
    if isinstance(A, _Diagonal):
        with np.errstate(over="ignore"):
            return float(np.max(A.d ** 2, initial=0.0))
    A = as_matrix(A, "A")
    if not np.any(A):
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(A, 2) ** 2)
