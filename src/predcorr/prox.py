"""Closed-form proximal maps and projections.

Every subproblem in the shipped solvers reduces to one of four operators:
soft thresholding (l1 costs), box projection, simplex projection (matrix
games), and the exact minimizer of a quadratic plus a proximal term, which
the prediction subproblems' SPD pencil solves. The kind list is deliberately
closed; these are the only pieces the test problems need.

The ProxOp classes bundle an operator with its objective value so traces
can report theta(u). Indicator objectives (box, simplex) report value 0.0
everywhere by convention: iterates produced by their prox are always
feasible, and keeping the value finite off-domain keeps every gap identity
exact because both sides of an identity use the same theta.
"""
from __future__ import annotations

import numpy as np

from .linalg import (SPDPencil, _Diagonal, _held, _read_only, as_matrix, as_vector,
                     check_symmetric)


def soft_threshold(x, weight: float):
    """Componentwise sign(x) * max(|x| - weight, 0)."""
    if not (np.isfinite(weight) and weight >= 0):
        raise ValueError(f"weight must be finite and >= 0, got {weight}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - weight, 0.0)


def project_box(x, lo, hi):
    """Componentwise clip onto [lo, hi]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ValueError("box bounds must not be NaN")
    if np.any(np.asarray(lo) > np.asarray(hi)):
        raise ValueError("box requires lo <= hi componentwise")
    return np.clip(x, lo, hi)


def project_simplex(x) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold exact algorithm: with u the coordinates sorted in
    decreasing order, the active set is the largest j such that
    u_j + (1 - sum_{i<=j} u_i)/j > 0, and the projection is
    max(x - theta, 0) with theta chosen so the result sums to one.
    Components tied at the threshold are included by the strict inequality.
    """
    x = as_vector(x, "x")
    if x.size == 0:
        raise ValueError("simplex projection needs dim >= 1")
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, x.size + 1)
    active = u + (1.0 - css) / j > 0.0
    rho = int(np.nonzero(active)[0][-1]) + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(x - theta, 0.0)


class ProxOp:
    """One objective piece f_i: an objective value and its proximal map."""

    kind = "abstract"

    def value(self, x) -> float:
        raise NotImplementedError

    def prox(self, z, rho: float) -> np.ndarray:
        """argmin_x f(x) + (rho/2) ||x - z||^2."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(doc: dict) -> "ProxOp":
        kind = doc.get("kind")
        if kind == "soft-threshold":
            return L1Penalty(doc["weight"])
        if kind == "box":
            return BoxIndicator(doc["lo"], doc["hi"])
        if kind == "simplex":
            return SimplexIndicator()
        if kind == "quadratic":
            return QuadraticCost(doc["S"], doc["c"], doc.get("const", 0.0))
        raise ValueError(f"unknown prox kind {kind!r}")


class L1Penalty(ProxOp):
    """f(x) = weight * ||x||_1."""

    kind = "soft-threshold"

    def __init__(self, weight: float):
        weight = float(weight)
        if not (np.isfinite(weight) and weight >= 0):
            raise ValueError(f"weight must be finite and >= 0, got {weight}")
        self.weight = weight

    def value(self, x) -> float:
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, z, rho: float) -> np.ndarray:
        return soft_threshold(z, self.weight / float(rho))

    def to_json(self) -> dict:
        return {"kind": self.kind, "weight": self.weight}


class BoxIndicator(ProxOp):
    """Indicator of the box [lo, hi]; value 0.0 by convention."""

    kind = "box"

    def __init__(self, lo, hi):
        self.lo = _read_only(np.array(lo, dtype=float))
        self.hi = _read_only(np.array(hi, dtype=float))
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi componentwise")

    def value(self, x) -> float:
        return 0.0

    def prox(self, z, rho: float) -> np.ndarray:
        return project_box(z, self.lo, self.hi)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lo": self.lo.tolist(), "hi": self.hi.tolist()}


class SimplexIndicator(ProxOp):
    """Indicator of the probability simplex; value 0.0 by convention."""

    kind = "simplex"

    def value(self, x) -> float:
        return 0.0

    def prox(self, z, rho: float) -> np.ndarray:
        return project_simplex(z)

    def to_json(self) -> dict:
        return {"kind": self.kind}


class QuadraticCost(ProxOp):
    """f(x) = (1/2) x^T S x - c^T x + const, with S symmetric PSD.

    S is the dense read-only array; value, grad and the prox apply it in
    its held form (linalg._held), elementwise when S is diagonal.
    """

    kind = "quadratic"

    def __init__(self, S, c, const: float = 0.0):
        self.S = as_matrix(S, "S")
        self.c = as_vector(c, "c")
        self._S = _held(self.S)
        if self._S is self.S:  # a diagonal is symmetric
            check_symmetric(self.S, 1e-8, "S")
        if self.S.shape[0] != self.c.size:
            raise ValueError("S and c dimensions disagree")
        self.const = float(const)
        if not np.isfinite(self.const):
            raise ValueError(f"const must be finite, got {self.const}")

    @classmethod
    def distance_to(cls, anchor) -> "QuadraticCost":
        """The cost (1/2) ||x - anchor||^2."""
        anchor = as_vector(anchor, "anchor")
        return cls(np.eye(anchor.size), anchor, 0.5 * float(anchor @ anchor))

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self._S @ x) - self.c @ x) + self.const

    def grad(self, x) -> np.ndarray:
        return self._S @ np.asarray(x, dtype=float) - self.c

    def prox(self, z, rho: float) -> np.ndarray:
        """Solves (S + rho I) x = c + rho z; NotPositiveDefiniteError if not SPD."""
        rho = float(rho)
        return SPDPencil(self._S, _Diagonal(np.full(self.c.size, rho))).solve(
            self.c + rho * as_vector(z, "z"), 1.0)

    def to_json(self) -> dict:
        return {"kind": self.kind, "S": self.S.tolist(), "c": self.c.tolist(),
                "const": self.const}
