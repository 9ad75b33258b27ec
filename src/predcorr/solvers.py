"""Concrete prediction steps for the three shipped problem families.

Each family bundles its data in a frozen spec carrying the matrix triple
(L, Q, M) of its scheme plus the prediction subproblems. Every subproblem
this package ships reduces to the inclusion

    0 in  df(x_breve) + W x_tilde + q,    x_breve = tau x_tilde + (1-tau) anchor

solved in the tilde variable. tau = 1 collapses x_breve = x_tilde and gives
the plain step, so each family has one predictor, predict(state, tau), and
the plain scheme is its tau = 1 case by construction. Two solve paths cover
all shipped objectives: quadratic f (SPD linear solve) and prox-friendly f
under a scalar W.

The two-block and saddle families work on full named iterates (their image
map is the identity), while the multi-block family's corrected state lives
in image space and its predictor reads the image blocks directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .framework import CorrectionSpec, SubproblemError
from .linalg import (NotPositiveDefiniteError, as_matrix, as_vector,
                     check_symmetric, cholesky_pd_check, solve_spd,
                     spectral_radius_gram)
from .prox import ProxOp, QuadraticCost


def _as_scale(W, dim):
    """Return rho when W acts as rho*I on R^dim, else None."""
    if np.isscalar(W):
        return float(W)
    W = np.asarray(W, dtype=float)
    rho = float(np.trace(W)) / dim
    if np.max(np.abs(W - rho * np.eye(dim))) <= 1e-10 * (1.0 + abs(rho)):
        return rho
    return None


def solve_prediction_inclusion(f: ProxOp, W, q, tau: float = 1.0, anchor=None):
    """Solve 0 in df(x_breve) + W x_tilde + q for (x_breve, x_tilde).

    The unknowns are tied by x_breve = tau*x_tilde + (1-tau)*anchor; with
    tau = 1 the anchor is unused and both outputs coincide. W may be a
    square matrix or a scalar rho standing for rho*I.

    Quadratic f solves (tau*S + W) x_tilde = c - q - (1-tau)*S*anchor.
    Any other f needs W = rho*I with rho > 0, giving
    x_breve = prox_f((1-tau)*anchor - (tau/rho)*q, rho/tau).
    """
    q = as_vector(q, "q")
    n = q.size
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if tau == 1.0:
        anchor = np.zeros(n)
    elif anchor is None:
        raise ValueError("anchor is required when tau < 1")
    else:
        anchor = as_vector(anchor, "anchor")

    if isinstance(f, QuadraticCost):
        A = tau * f.S + (W * np.eye(n) if np.isscalar(W) else as_matrix(W, "W"))
        rhs = f.c - q - (1.0 - tau) * (f.S @ anchor)
        try:
            x_tilde = solve_spd(A, rhs)
        except (NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
            raise SubproblemError(f"quadratic subproblem not SPD: {exc}") from exc
        x_breve = tau * x_tilde + (1.0 - tau) * anchor
        return x_breve, x_tilde

    rho = _as_scale(W, n)
    if rho is None or rho <= 0.0:
        got = repr(float(W)) if np.isscalar(W) else f"a weight of shape {np.shape(W)}"
        raise SubproblemError(
            f"prox subproblem needs a positive scalar quadratic weight, got {got}")
    x_breve = f.prox((1.0 - tau) * anchor - (tau / rho) * q, rho / tau)
    x_tilde = (x_breve - (1.0 - tau) * anchor) / tau
    return x_breve, x_tilde


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

    def __post_init__(self):
        object.__setattr__(self, "A1", as_matrix(self.A1, "A1"))
        object.__setattr__(self, "A2", as_matrix(self.A2, "A2"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        l = self.b.size
        if self.A1.shape[0] != l or self.A2.shape[0] != l:
            raise ValueError("A1, A2 and b row dimensions disagree")
        for name in ("beta", "r", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        gram2 = self.A2.T @ self.A2
        if not cholesky_pd_check(gram2).positive_definite:
            raise ValueError("A2 must have full column rank")
        if self.P is None:
            a = 1.01 * self.beta * spectral_radius_gram(self.A1)
            P = a * np.eye(self.n1) - self.beta * (self.A1.T @ self.A1)
        else:
            P = as_matrix(self.P, "P")
            if P.shape != (self.n1, self.n1):
                raise ValueError("P dimension does not match A1 columns")
            check_symmetric(P, 1e-10, "P")
            if np.min(np.linalg.eigvalsh(P)) < -1e-10 * (1.0 + np.max(np.abs(P))):
                raise ValueError("P must be positive semidefinite")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "_W1", self.beta * (self.A1.T @ self.A1) + P)
        object.__setattr__(self, "_W2", self.beta * gram2)

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
        n1, n2, l = self.block_dims()
        beta, r, s = self.beta, self.r, self.s
        A2 = self.A2
        Q = np.zeros((n1 + n2 + l, n1 + n2 + l))
        Q[:n1, :n1] = self.P
        Q[n1:n1 + n2, n1:n1 + n2] = beta * (A2.T @ A2)
        Q[n1:n1 + n2, n1 + n2:] = -r * A2.T
        Q[n1 + n2:, n1:n1 + n2] = -A2
        Q[n1 + n2:, n1 + n2:] = np.eye(l) / beta
        M = np.eye(n1 + n2 + l)
        M[n1 + n2:, n1:n1 + n2] = -s * beta * A2
        M[n1 + n2:, n1 + n2:] = (r + s) * np.eye(l)
        return CorrectionSpec(L=np.eye(n1 + n2 + l), Q=Q, M=M)

    def initial_point(self) -> BlockVector:
        return BlockVector.zeros(self.block_names(), self.block_dims())

    def image(self, w: BlockVector) -> np.ndarray:
        return w.concat()

    def point_from_image(self, v: np.ndarray) -> BlockVector:
        return BlockVector.from_concat(self.block_names(), self.block_dims(), v)

    def predict(self, state, tau: float):
        """Gauss-Seidel sweep; returns (w_breve, w_tilde), one object at tau = 1."""
        x1, x2, lam = state.w_curr["x1"], state.w_curr["x2"], state.w_curr["lam"]
        prev = None if tau == 1.0 else state.breve_prev  # no anchor at tau = 1
        a1 = prev["x1"] if prev is not None else None
        a2 = prev["x2"] if prev is not None else None

        q1 = -self.A1.T @ lam + self.beta * (self.A1.T @ (self.A2 @ x2 - self.b)) \
            - self.P @ x1
        b1, t1 = solve_prediction_inclusion(self.prox_f1, self._W1, q1, tau, a1)

        slack = self.A1 @ t1 + self.A2 @ x2 - self.b
        lam_tilde = lam - self.beta * slack
        lam_half = lam - self.r * self.beta * slack

        q2 = -self.A2.T @ lam_half + self.beta * (self.A2.T @ (self.A1 @ t1 - self.b))
        b2, t2 = solve_prediction_inclusion(self.prox_f2, self._W2, q2, tau, a2)
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
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

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

    def image_names(self):
        return tuple(f"v{i + 1}" for i in range(self.m)) + ("vlam",)

    def in_certified_region(self, margin: float = 1e-12) -> bool:
        return margin < self.alpha < 1.0 - margin

    def correction_spec(self) -> CorrectionSpec:
        m, l = self.m, self.n_constraints
        rb = np.sqrt(self.beta)
        eye = np.eye(l)
        dims = self.block_dims()
        L = np.zeros(((m + 1) * l, sum(dims)))
        col = 0
        for i, A in enumerate(self.A_i):
            L[i * l:(i + 1) * l, col:col + A.shape[1]] = rb * A
            col += A.shape[1]
        L[m * l:, col:] = eye / rb

        Q = np.zeros(((m + 1) * l, (m + 1) * l))
        for i in range(m):
            for j in range(i + 1):
                Q[i * l:(i + 1) * l, j * l:(j + 1) * l] = eye
            Q[i * l:(i + 1) * l, m * l:] = eye
        Q[m * l:, m * l:] = eye

        M = np.zeros_like(Q)
        for i in range(m):
            M[i * l:(i + 1) * l, i * l:(i + 1) * l] = self.alpha * eye
            if i + 1 < m:
                M[i * l:(i + 1) * l, (i + 1) * l:(i + 2) * l] = -self.alpha * eye
        M[m * l:, :l] = -self.alpha * eye
        M[m * l:, m * l:] = eye
        return CorrectionSpec(L=L, Q=Q, M=M)

    def initial_point(self) -> BlockVector:
        return BlockVector.zeros(self.block_names(), self.block_dims())

    def image(self, w: BlockVector) -> np.ndarray:
        rb = np.sqrt(self.beta)
        parts = [rb * (A @ w[i]) for i, A in enumerate(self.A_i)]
        parts.append(w["lam"] / rb)
        return np.concatenate(parts)

    def point_from_image(self, v: np.ndarray) -> None:
        # A_i x_i does not determine x_i; the image is the authoritative state
        return None

    def predict(self, state, tau: float):
        """Forward pass over the blocks, then the multiplier; (w_breve, w_tilde)."""
        v = state.v_curr
        l = self.n_constraints
        rb = np.sqrt(self.beta)
        ax = [v[i * l:(i + 1) * l] / rb for i in range(self.m)]  # the A_i x_i
        lam = v[self.m * l:] * rb
        prev = None if tau == 1.0 else state.breve_prev  # no anchor at tau = 1
        tildes, breves = [], []
        drift = np.zeros(self.n_constraints)  # sum_{j<i} A_j (xt_j - x_j)
        sum_ax = np.zeros(self.n_constraints)
        for i, (f, A) in enumerate(zip(self.prox_f_i, self.A_i)):
            W = self.beta * (A.T @ A)
            q = -A.T @ lam + self.beta * (A.T @ (drift - ax[i]))
            a = prev[i] if prev is not None else None
            xb, xt = solve_prediction_inclusion(f, W, q, tau, a)
            breves.append(xb)
            tildes.append(xt)
            drift += A @ xt - ax[i]
            sum_ax += A @ xt
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

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        for name in ("r", "s", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.r > 0.0 and self.s > 0.0):
            raise ValueError("r and s must be positive")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

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
        n, m = self.n_primal, self.n_dual
        Q = np.zeros((n + m, n + m))
        Q[:n, :n] = self.r * np.eye(n)
        Q[:n, n:] = self.A.T
        Q[n:, :n] = self.alpha * self.A
        Q[n:, n:] = self.s * np.eye(m)
        M = np.eye(n + m)
        M[n:, :n] = -((1.0 - self.alpha) / self.s) * self.A
        return CorrectionSpec(L=np.eye(n + m), Q=Q, M=M)

    def initial_point(self) -> BlockVector:
        return BlockVector.zeros(self.block_names(), self.block_dims())

    def image(self, w: BlockVector) -> np.ndarray:
        return w.concat()

    def point_from_image(self, v: np.ndarray) -> BlockVector:
        return BlockVector.from_concat(self.block_names(), self.block_dims(), v)

    def predict(self, state, tau: float):
        """Primal prox, momentum push, dual prox; returns (w_breve, w_tilde)."""
        x, y = state.w_curr["x"], state.w_curr["y"]
        prev = None if tau == 1.0 else state.breve_prev  # no anchor at tau = 1
        ax = prev["x"] if prev is not None else None
        ay = prev["y"] if prev is not None else None
        xb, xt = solve_prediction_inclusion(
            self.prox_f, self.r, -self.r * x - self.A.T @ y, tau, ax)
        x_push = xt + self.alpha * (xt - x)
        yb, yt = solve_prediction_inclusion(
            self.prox_g, self.s, self.A @ x_push - self.s * y, tau, ay)
        names = self.block_names()
        w_tilde = BlockVector(names, (xt, yt))
        if prev is None:
            return w_tilde, w_tilde
        return BlockVector(names, (xb, yb)), w_tilde
