"""Concrete prediction steps for the three shipped problem families.

Each family bundles its data in a frozen spec carrying the matrix pair
(Q, M) of its scheme plus the prediction subproblems. A spec also holds its
family name, its objectives (ProxOps in block order) and its coupling
(As, b), the constraint sum_i A_i x_i = b (b is None for the saddle's
bilinear term); problems.VariationalInstance derives theta and F from them,
applying the coupling matrices in the form linalg._held decided for them
when the spec took them (_coupling). Each spec builds its CorrectionSpec
once, in its constructor, and correction_spec() returns that one.
Every subproblem this package ships reduces to the inclusion

    0 in  df(x_breve) + W x_tilde + q,    x_breve = tau x_tilde + (1-tau) anchor

solved in the tilde variable. tau = 1 collapses x_breve = x_tilde and gives
the plain step, so each family has one predictor, predict(v, breve_prev,
tau), and the plain scheme is its tau = 1 case by construction. A spec
prepares each block's solve once, for every tau (prepare_prediction).

Every predictor reads the corrected state from its image vector v alone.
The two-block and saddle families slice their blocks out of v (their image
map is the identity); the multi-block family reads A_i x_i and the
multiplier from its scaled image blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .blocks import BlockVector
from .framework import CorrectionSpec, SubproblemError
from .linalg import (PD_TOL, NotPositiveDefiniteError, SPDPencil, _dense, _Diagonal, _entries,
                     _held, _identity_fit, _positive_definite, _read_only,
                     _smallest_eigenvalue, as_matrix, as_vector, check_symmetric,
                     spectral_radius_gram)
from .prox import ProxOp, QuadraticCost


def prepare_prediction(f: ProxOp, W):
    """Prepare 0 in df(x_breve) + W x_tilde + q once; return its unchecked solve.

    W is a matrix (an array, or a held linalg._Diagonal) or a scalar rho for
    rho*I. solve(q, tau, anchor) gives (x_breve, x_tilde) at any tau: a
    quadratic f solves through its SPDPencil, any other f through its prox at
    the scalar weight decided here. A subproblem that cannot be prepared gets
    a solve raising the SubproblemError saying why.
    """
    if isinstance(f, QuadraticCost):
        if np.isscalar(W):
            W = _Diagonal(np.full(f.c.size, float(W)))
        try:
            pencil = SPDPencil(f._S, W)
        except (NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
            return partial(_fail, f"quadratic subproblem not SPD: {exc}")

        def solve(q, tau, anchor):
            if tau == 1.0:
                x = pencil.solve(f.c - q, 1.0)
                return x, x
            x_tilde = pencil.solve(f.c - q - (1.0 - tau) * (f._S @ anchor), tau)
            return tau * x_tilde + (1.0 - tau) * anchor, x_tilde
        return solve
    rho, spread = _identity_fit(W)
    if not (spread <= 1e-10 * (1 + abs(rho)) and rho > 0.0):
        got = repr(float(W)) if np.isscalar(W) else f"a weight of shape {np.shape(W)}"
        return partial(
            _fail, f"prox subproblem needs a positive scalar quadratic weight, got {got}")

    def solve(q, tau, anchor):
        shift = 0.0 if tau == 1.0 else (1.0 - tau) * anchor
        x_breve = f.prox(shift - (tau / rho) * q, rho / tau)
        return x_breve, (x_breve - shift) / tau
    return solve


def _fail(message: str, *_):
    raise SubproblemError(message)


def _set_finite(spec, *names) -> None:
    """Store each named field of a frozen spec as a float; refuse a non-finite one."""
    for name in names:
        value = float(getattr(spec, name))
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(spec, name, value)


# ---------------------------------------------------------------------------
# two-block linearly constrained family

@dataclass(frozen=True)
class TwoBlockSpec:
    """Two separable blocks coupled by A1 x1 + A2 x2 = b.

    The prediction is a Gauss-Seidel sweep: an x1 step proximally weighted
    by P, a multiplier half-update scaled by r, then the x2 step; the
    correction pushes the multiplier a second time with step s*beta. The
    certified parameter region is r in (-1,1), s in (0,1), r+s > 0; the
    constructor only enforces structural sanity so that out-of-region
    parameter choices can still be built and then rejected by certify().

    P defaults to the diagonal-dominant linearization a*I - beta*A1'A1
    with a = 1.01*beta*rho(A1'A1), which keeps the x1 subproblem solvable
    through a plain prox when f1 is not quadratic.

    A1, A2 and a given P are held as linalg._held decides from their
    entries: a square one that is zero off its diagonal as its diagonal.
    The Gram matrices, the rank check, the default P, the prepared solves,
    predict's products and the correction_spec blocks follow from those
    held forms, so a diagonal coupling (the consensus split A1 = I,
    A2 = -I) is elementwise throughout and forms no n x n product. The
    public A1, A2 and P stay dense read-only arrays.
    """

    prox_f1: ProxOp
    prox_f2: ProxOp
    A1: np.ndarray
    A2: np.ndarray
    b: np.ndarray
    beta: float
    r: float
    s: float
    P: np.ndarray | None = None

    family = "two-block"

    def __post_init__(self):
        object.__setattr__(self, "A1", as_matrix(self.A1, "A1"))
        object.__setattr__(self, "A2", as_matrix(self.A2, "A2"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        l = self.b.size
        if self.A1.shape[0] != l or self.A2.shape[0] != l:
            raise ValueError("A1, A2 and b row dimensions disagree")
        _set_finite(self, "beta", "r", "s")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        A1, A2 = _held(self.A1), _held(self.A2)
        with np.errstate(over="ignore", invalid="ignore"):
            gram1, gram2 = A1.T @ A1, A2.T @ A2
        for name, gram in (("A1", gram1), ("A2", gram2)):
            if not np.all(np.isfinite(_entries(gram))):
                raise ValueError(f"{name}'{name} overflows; rescale {name}")
        if not _positive_definite(gram2):
            raise ValueError("A2 must have full column rank")
        if self.P is None:
            a = 1.01 * self.beta * spectral_radius_gram(A1)
            P = _Diagonal(np.full(self.n1, a)) - self.beta * gram1
            object.__setattr__(self, "P", _read_only(_dense(P)))
        else:
            object.__setattr__(self, "P", as_matrix(self.P, "P"))
            if self.P.shape != (self.n1, self.n1):
                raise ValueError("P dimension does not match A1 columns")
            check_symmetric(self.P, PD_TOL, "P")
            P = _held(self.P)
            if _smallest_eigenvalue(P) < -PD_TOL * (1.0 + np.max(np.abs(self.P))):
                raise ValueError("P must be positive semidefinite")
        W2 = _read_only(self.beta * gram2)
        for name, held in (("_A1", A1), ("_A2", A2), ("_P", P), ("_W2", W2)):
            object.__setattr__(self, name, held)  # the held forms the steps apply
        object.__setattr__(self, "_solve", (
            prepare_prediction(self.prox_f1, self.beta * gram1 + P),
            prepare_prediction(self.prox_f2, W2)))
        object.__setattr__(self, "objectives", (self.prox_f1, self.prox_f2))
        object.__setattr__(self, "coupling", ((self.A1, self.A2), self.b))
        object.__setattr__(self, "_coupling", ((A1, A2), self.b))
        object.__setattr__(self, "_cspec", self._build_correction_spec())

    @property
    def n1(self) -> int:
        return self.A1.shape[1]

    @property
    def n2(self) -> int:
        return self.A2.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.b.size

    def block_names(self):
        return ("x1", "x2", "lam")

    def block_dims(self):
        return (self.n1, self.n2, self.n_constraints)

    def in_certified_region(self, margin: float = 1e-12) -> bool:
        return (abs(self.r) < 1.0 - margin
                and margin < self.s < 1.0 - margin
                and self.r + self.s > margin)

    def correction_spec(self) -> CorrectionSpec:
        """The spec's (Q, M), built once by the constructor; the data is read-only."""
        return self._cspec

    def _build_correction_spec(self) -> CorrectionSpec:
        beta, r, s, A2 = self.beta, self.r, self.s, self._A2
        Q = {(0, 0): self._P, (1, 1): self._W2, (1, 2): -r * A2.T, (2, 1): -A2,
             (2, 2): 1.0 / beta}
        M = {(0, 0): 1.0, (1, 1): 1.0, (2, 1): -s * beta * A2, (2, 2): r + s}
        return CorrectionSpec(Q, M, self.block_dims())

    def image(self, w: BlockVector) -> np.ndarray:
        return w.concat()

    def predict(self, v: np.ndarray, breve_prev: BlockVector | None, tau: float):
        """Gauss-Seidel sweep; returns (w_breve, w_tilde), one object at tau = 1."""
        x1, x2, lam = np.split(v, np.cumsum(self.block_dims())[:-1])
        prev = None if tau == 1.0 else breve_prev  # no anchor at tau = 1
        a1, a2, _ = (None,) * 3 if prev is None else prev.blocks

        A1, A2 = self._A1, self._A2
        q1 = -(A1.T @ lam) + self.beta * (A1.T @ (A2 @ x2 - self.b)) - self._P @ x1
        b1, t1 = self._solve[0](q1, tau, a1)

        slack = A1 @ t1 + A2 @ x2 - self.b
        lam_tilde = lam - self.beta * slack
        lam_half = lam - self.r * self.beta * slack

        q2 = -(A2.T @ lam_half) + self.beta * (A2.T @ (A1 @ t1 - self.b))
        b2, t2 = self._solve[1](q2, tau, a2)
        names = self.block_names()
        w_tilde = BlockVector(names, (t1, t2, lam_tilde))
        if prev is None:
            return w_tilde, w_tilde
        lam_breve = tau * lam_tilde + (1.0 - tau) * prev["lam"]
        return BlockVector(names, (b1, b2, lam_breve)), w_tilde


# ---------------------------------------------------------------------------
# multi-block linearly constrained family

@dataclass(frozen=True)
class MultiBlockSpec:
    """m separable blocks coupled by sum_i A_i x_i = b.

    The corrected state lives in image space: block i is sqrt(beta)*A_i*x_i
    and the last block is the multiplier over sqrt(beta). Predictions do a
    forward Gauss-Seidel pass over the blocks followed by a full multiplier
    step; the correction mixes neighbouring image blocks with weight alpha.
    Certified for alpha in (0, 1).
    """

    prox_f_i: tuple
    A_i: tuple
    b: np.ndarray
    beta: float
    alpha: float

    family = "multi-block"

    def __post_init__(self):
        fs = tuple(self.prox_f_i)
        mats = tuple(as_matrix(A, f"A_{i + 1}") for i, A in enumerate(self.A_i))
        object.__setattr__(self, "prox_f_i", fs)
        object.__setattr__(self, "A_i", mats)
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        if len(fs) != len(mats) or not fs:
            raise ValueError("need one objective per constraint block")
        l = self.b.size
        for i, A in enumerate(mats):
            if A.shape[0] != l:
                raise ValueError(f"A_{i + 1} row dimension disagrees with b")
        _set_finite(self, "beta", "alpha")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "_solve", tuple(
            prepare_prediction(f, self.beta * (A.T @ A)) for f, A in zip(fs, mats)))
        object.__setattr__(self, "objectives", fs)
        object.__setattr__(self, "coupling", (mats, self.b))
        object.__setattr__(self, "_coupling", (tuple(_held(A) for A in mats), self.b))
        object.__setattr__(self, "_cspec", self._build_correction_spec())

    @property
    def m(self) -> int:
        return len(self.A_i)

    @property
    def n_constraints(self) -> int:
        return self.b.size

    def block_names(self):
        return tuple(f"x{i + 1}" for i in range(self.m)) + ("lam",)

    def block_dims(self):
        return tuple(A.shape[1] for A in self.A_i) + (self.n_constraints,)

    def in_certified_region(self, margin: float = 1e-12) -> bool:
        return margin < self.alpha < 1.0 - margin

    def correction_spec(self) -> CorrectionSpec:
        """Scalar blocks on the image blocks: Q lower triangular plus the last column.

        Built once by the constructor; the data is read-only.
        """
        return self._cspec

    def _build_correction_spec(self) -> CorrectionSpec:
        m, alpha = self.m, self.alpha
        Q = {(i, j): 1.0 for i in range(m) for j in (*range(i + 1), m)}
        Q[m, m] = 1.0
        M = {(i, i): alpha for i in range(m)}
        M.update({(i, i + 1): -alpha for i in range(m - 1)})
        M.update({(m, 0): -alpha, (m, m): 1.0})
        return CorrectionSpec(Q, M, (self.n_constraints,) * (m + 1))

    def image(self, w: BlockVector) -> np.ndarray:
        rb = np.sqrt(self.beta)
        parts = [rb * (A @ w[i]) for i, A in enumerate(self.A_i)]
        parts.append(w["lam"] / rb)
        return np.concatenate(parts)

    def predict(self, v: np.ndarray, breve_prev: BlockVector | None, tau: float):
        """Forward pass over the blocks, then the multiplier; (w_breve, w_tilde)."""
        l = self.n_constraints
        rb = np.sqrt(self.beta)
        ax = [v[i * l:(i + 1) * l] / rb for i in range(self.m)]  # the A_i x_i
        lam = v[self.m * l:] * rb
        prev = None if tau == 1.0 else breve_prev  # no anchor at tau = 1
        tildes, breves = [], []
        drift = np.zeros(self.n_constraints)  # sum_{j<i} A_j (xt_j - x_j)
        sum_ax = np.zeros(self.n_constraints)
        for i, (A, solve) in enumerate(zip(self.A_i, self._solve)):
            q = -(A.T @ lam) + self.beta * (A.T @ (drift - ax[i]))
            xb, xt = solve(q, tau, None if prev is None else prev[i])
            breves.append(xb)
            tildes.append(xt)
            a_xt = A @ xt
            drift += a_xt - ax[i]
            sum_ax += a_xt
        lam_tilde = lam - self.beta * (sum_ax - self.b)
        names = self.block_names()
        w_tilde = BlockVector(names, (*tildes, lam_tilde))
        if prev is None:
            return w_tilde, w_tilde
        lam_breve = tau * lam_tilde + (1.0 - tau) * prev["lam"]
        return BlockVector(names, (*breves, lam_breve)), w_tilde


# ---------------------------------------------------------------------------
# bilinear saddle family

@dataclass(frozen=True)
class SaddleSpec:
    """Bilinear coupling f(x) - y'Ax - g(y) between a min and a max block.

    The x step is a prox of f at the current point with weight r; the y step
    is a prox of g with weight s taken after pushing x by the alpha-weighted
    momentum x_tilde + alpha*(x_tilde - x). Certified when
    r*s > (1 - alpha + alpha^2) * rho(A'A) with alpha in [0, 1]; alpha = 1
    recovers the classical primal-dual step.
    """

    prox_f: ProxOp
    prox_g: ProxOp
    A: np.ndarray
    r: float
    s: float
    alpha: float

    family = "saddle"

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        if 0 in self.A.shape:
            raise ValueError(f"A needs a row and a column, got shape {self.A.shape}")
        _set_finite(self, "r", "s", "alpha")
        if not (self.r > 0.0 and self.s > 0.0):
            raise ValueError("r and s must be positive")
        object.__setattr__(self, "objectives", (self.prox_f, self.prox_g))
        object.__setattr__(self, "coupling", ((self.A,), None))
        object.__setattr__(self, "_coupling", ((_held(self.A),), None))
        object.__setattr__(self, "_solve", (prepare_prediction(self.prox_f, self.r),
                                            prepare_prediction(self.prox_g, self.s)))
        object.__setattr__(self, "_cspec", self._build_correction_spec())

    @property
    def n_primal(self) -> int:
        return self.A.shape[1]

    @property
    def n_dual(self) -> int:
        return self.A.shape[0]

    def block_names(self):
        return ("x", "y")

    def block_dims(self):
        return (self.n_primal, self.n_dual)

    def in_certified_region(self, margin: float = 1e-12) -> bool:
        rho = spectral_radius_gram(self.A)
        bound = (1.0 - self.alpha + self.alpha ** 2) * rho
        return 0.0 <= self.alpha <= 1.0 and self.r * self.s > bound + margin

    def correction_spec(self) -> CorrectionSpec:
        """The spec's (Q, M), built once by the constructor; the data is read-only."""
        return self._cspec

    def _build_correction_spec(self) -> CorrectionSpec:
        A = self.A
        Q = {(0, 0): self.r, (0, 1): A.T, (1, 0): self.alpha * A, (1, 1): self.s}
        M = {(0, 0): 1.0, (1, 1): 1.0, (1, 0): -((1.0 - self.alpha) / self.s) * A}
        return CorrectionSpec(Q, M, self.block_dims())

    def image(self, w: BlockVector) -> np.ndarray:
        return w.concat()

    def predict(self, v: np.ndarray, breve_prev: BlockVector | None, tau: float):
        """Primal prox, momentum push, dual prox; returns (w_breve, w_tilde)."""
        x, y = np.split(v, np.cumsum(self.block_dims())[:-1])
        prev = None if tau == 1.0 else breve_prev  # no anchor at tau = 1
        ax, ay = (None, None) if prev is None else prev.blocks
        xb, xt = self._solve[0](-self.r * x - self.A.T @ y, tau, ax)
        x_push = xt + self.alpha * (xt - x)
        yb, yt = self._solve[1](self.A @ x_push - self.s * y, tau, ay)
        w_tilde = BlockVector(self.block_names(), (xt, yt))
        if prev is None:
            return w_tilde, w_tilde
        return BlockVector(self.block_names(), (xb, yb)), w_tilde
