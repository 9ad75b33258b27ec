"""Test problems with ground-truth oracles, plus the gap metrics.

Every instance bundles a solver spec with, when one is available, the
oracle point w_star. Its variational form comes from the spec: theta sums
the spec's objectives over their blocks, and the operator
F(w) = (-A_1' y, ..., -A_m' y, sum_i A_i x_i - b) applies the spec's
coupling (As, b) block by block, y being the last block. The gap reported
in traces is

    gap(w_hat; w_ref) = theta(u_hat) - theta(u_ref) + (w_hat - w_ref)' F(w_ref)

which equals the Lagrangian difference for the linearly constrained
families and the primal-dual function difference for the saddle family.

Random data comes from an explicit splitmix64 stream rather than any
library generator so that (seed, dims) pins an instance bit-for-bit across
platforms and implementations: each draw maps the top 53 bits of the next
64-bit word into [-1, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .linalg import _read_only, as_matrix, cholesky_pd_check, spectral_radius_gram
from .prox import L1Penalty, ProxOp, QuadraticCost, SimplexIndicator, soft_threshold
from .solvers import MultiBlockSpec, SaddleSpec, TwoBlockSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream: z = seed += 0x9E3779B97F4A7C15, then two xor-mul mixes.

    The stream is counter-based: word k = 1, 2, ... of the stream mixes
    seed + k * 0x9E3779B97F4A7C15 (mod 2^64), so n words are drawn at once
    as numpy uint64 arithmetic, which wraps mod 2^64 as the reference does.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def _words(self, n: int) -> np.ndarray:
        """The next n 64-bit words, as uint64."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + int(n) * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def next_uint64(self) -> int:
        return int(self._words(1)[0])

    def uniform(self) -> float:
        """One draw in [-1, 1] from the top 53 bits."""
        return float(self.vector(1)[0])

    def vector(self, n: int) -> np.ndarray:
        """n draws in [-1, 1], each from the top 53 bits of one word."""
        return 2.0 * ((self._words(n) >> np.uint64(11)) * 2.0 ** -53) - 1.0

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.vector(rows * cols).reshape(rows, cols)


@dataclass(frozen=True)
class VariationalInstance:
    """One solvable problem: a spec and, when known, its oracle point.

    F applies the spec's coupling block by block: -A_i' y on each primal
    block and the residual sum_i A_i x_i - b on the last block y (without
    b, the saddle's bilinear coupling). Its linear part is skew by
    construction, which is what makes the gap transfer between reference
    points.
    """

    spec: object
    w_star: BlockVector | None = None
    seed: int | None = None

    def __post_init__(self):
        # F and the residual apply the coupling as a shipped spec holds it
        # (linalg._held, decided where the spec took its matrices)
        object.__setattr__(self, "_coupling", getattr(self.spec, "_coupling", self.spec.coupling))
        if self.w_star is None:
            return
        zero = BlockVector.zeros(self.spec.block_names(), self.spec.block_dims())
        if not self.w_star.same_structure(zero):
            raise ValueError("w_star does not match the spec's blocks")
        if self.feasibility(self.w_star) > 1e-10:
            raise ValueError("oracle point is not feasible")
        # theta(u*) and F(w*), constant over every run, for gap_to_star
        object.__setattr__(self, "_theta_star", self.objective(self.w_star))
        object.__setattr__(self, "_F_star", _read_only(self.F(self.w_star)))

    @property
    def family(self) -> str:
        return self.spec.family

    def objective(self, w: BlockVector) -> float:
        """theta(u): the spec's objectives summed over their blocks."""
        return float(sum(f.value(w[i]) for i, f in enumerate(self.spec.objectives)))

    def _residual(self, w: BlockVector):
        """(-b + A_1 x_1) + A_2 x_2 + ..., with 0.0 in place of -b without b."""
        As, b = self._coupling
        return sum((A @ w[i] for i, A in enumerate(As)), 0.0 if b is None else -b)

    def F(self, w: BlockVector) -> np.ndarray:
        """F(w) as one flat vector, blocks in the order of w."""
        As, _ = self._coupling
        y = w[len(As)]
        return np.concatenate([-(A.T @ y) for A in As] + [self._residual(w)])

    def feasibility(self, w: BlockVector) -> float:
        """Constraint residual ||sum_i A_i x_i - b||; zero without a constraint."""
        if self._coupling[1] is None:
            return 0.0
        return float(np.linalg.norm(self._residual(w)))

    def gap_to_star(self, w: BlockVector) -> float:
        if self.w_star is None:
            raise ValueError("instance has no oracle point")
        _check_same_blocks(w, self.w_star)
        return self._gap_to_star(w, self.objective(w))

    def _gap_to_star(self, w: BlockVector, theta: float) -> float:
        """gap_to_star(w) given theta(u); the run loop evaluates theta once for both."""
        return _gap(w, self.w_star, theta, self._theta_star, self._F_star)


def gap_at(w_hat: BlockVector, w_ref: BlockVector, instance: VariationalInstance) -> float:
    """theta(u_hat) - theta(u_ref) + (w_hat - w_ref)' F(w_ref)."""
    _check_same_blocks(w_hat, w_ref)
    return _gap(w_hat, w_ref, instance.objective(w_hat), instance.objective(w_ref),
                instance.F(w_ref))


def _check_same_blocks(w_hat, w_ref) -> None:
    if not w_hat.same_structure(w_ref):
        raise ValueError("w_hat and w_ref structures disagree")


def _gap(w_hat, w_ref, theta_hat: float, theta_ref: float, F_ref: np.ndarray) -> float:
    """gap_at with theta(u_hat), theta(u_ref) and F(w_ref) given."""
    diff = w_hat.concat() - w_ref.concat()
    return float(theta_hat - theta_ref + diff @ F_ref)


def kkt_oracle(instance: VariationalInstance) -> BlockVector:
    """Solve the affine optimality system of a quadratic instance directly.

    The system is F's coupling with each objective's S on its diagonal
    block and right-hand side (c_i, ..., b), solved in one shot independent
    of any iterative scheme; the operator residual at the solution is
    verified before it is returned.
    """
    spec = instance.spec
    fs = spec.objectives
    if not all(isinstance(f, QuadraticCost) for f in fs):
        raise ValueError("oracle needs quadratic objectives throughout")
    As, b = spec.coupling
    if b is not None and b.size < 1:
        raise ValueError("oracle requires at least one constraint row")

    names = spec.block_names()
    dims = spec.block_dims()
    offs = np.cumsum((0,) + dims)
    A = np.hstack(As)
    l, n = A.shape
    kkt = np.block([[np.zeros((n, n)), -A.T], [A, np.zeros((l, l))]])
    rhs = np.zeros(offs[-1])
    if b is not None:
        rhs[n:] = b  # c is zero on a multiplier block
    for i, f in enumerate(fs):
        lo, hi = offs[i], offs[i + 1]
        kkt[lo:hi, lo:hi] = f.S
        rhs[lo:hi] += f.c

    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular optimality system: {exc}") from exc

    w_star = BlockVector.from_concat(names, dims, sol)
    grads = np.concatenate([f.grad(w_star[i]) for i, f in enumerate(fs)]
                           + [np.zeros(offs[-1] - offs[len(fs)])])
    resid = float(np.linalg.norm(grads + instance.F(w_star)))
    if resid > 1e-10 * (1.0 + float(np.linalg.norm(rhs))):
        raise ValueError(f"oracle residual {resid:.3e} out of tolerance")
    return w_star


def _with_kkt_oracle(spec, seed) -> VariationalInstance:
    """The instance of a quadratic spec with its KKT point attached."""
    return VariationalInstance(spec, kkt_oracle(VariationalInstance(spec)), seed)


# ---------------------------------------------------------------------------
# generators

def make_two_block_quadratic(seed: int, n1: int, n2: int, l: int, *,
                             beta: float = 1.0, r: float = 0.5, s: float = 0.5,
                             P=None) -> VariationalInstance:
    """Random strongly convex two-block instance with a KKT oracle.

    f_i = (1/2)||x_i - a_i||^2 with all data drawn from the seeded stream.
    n2 <= l is required so A2 can have full column rank; degenerate draws
    are retried at most five times before giving up.
    """
    if min(n1, n2, l) < 1:
        raise ValueError("dimensions must be >= 1")
    if n2 > l:
        raise ValueError(f"need n2 <= l for a full-column-rank A2, got {n2} > {l}")
    rng = SplitMix64(seed)
    for _ in range(5):
        A1 = rng.matrix(l, n1)
        A2 = rng.matrix(l, n2)
        a1 = rng.vector(n1)
        a2 = rng.vector(n2)
        b = rng.vector(l)
        if not cholesky_pd_check(A2.T @ A2).positive_definite:
            continue
        spec = TwoBlockSpec(QuadraticCost.distance_to(a1),
                            QuadraticCost.distance_to(a2),
                            A1, A2, b, beta, r, s, P)
        try:
            return _with_kkt_oracle(spec, seed)
        except ValueError:
            continue
    raise ValueError("no full-rank draw in 5 attempts; change seed or dims")


def make_two_block_l1(seed: int, n: int, mu: float, *,
                      beta: float = 1.0, r: float = 0.5, s: float = 0.5) -> VariationalInstance:
    """Consensus split of mu*||x||_1 + (1/2)||x - a||^2 with analytic oracle.

    A1 = I, A2 = -I, b = 0 ties the two copies together; the oracle is
    x* = soft_threshold(a, mu) in both blocks with multiplier a - x*.
    mu = 0 degenerates to x* = a.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    rng = SplitMix64(seed)
    a = rng.vector(n)
    eye = np.eye(n)
    spec = TwoBlockSpec(L1Penalty(mu), QuadraticCost.distance_to(a),
                        eye, -eye, np.zeros(n), beta, r, s, None)
    x_star = soft_threshold(a, mu)
    w_star = BlockVector(spec.block_names(), (x_star, x_star, a - x_star))
    return VariationalInstance(spec, w_star, seed)


def make_multiblock_quadratic(seed: int, m: int, n_i, l: int, *,
                              beta: float = 1.0, alpha: float = 0.5) -> VariationalInstance:
    """Random m-block instance, f_i = (1/2)||x_i - a_i||^2, KKT oracle.

    n_i is one block dimension (shared) or a sequence of length m. The
    stacked constraint matrix must have full row rank so the multiplier is
    unique; degenerate draws, and draws whose KKT point fails the
    feasibility check, are retried at most five times.
    """
    if m < 1:
        raise ValueError("need at least one block")
    dims = [n_i] * m if np.isscalar(n_i) else list(n_i)
    if len(dims) != m or l < 1 or not all(float(d).is_integer() and d >= 1 for d in dims):
        raise ValueError(f"block dimensions must be m positive integers, got n_i={n_i!r}")
    dims = [int(d) for d in dims]
    rng = SplitMix64(seed)
    for _ in range(5):
        As = [rng.matrix(l, d) for d in dims]
        anchors = [rng.vector(d) for d in dims]
        b = rng.vector(l)
        row_gram = sum(A @ A.T for A in As)
        if not cholesky_pd_check(row_gram).positive_definite:
            continue
        spec = MultiBlockSpec(tuple(QuadraticCost.distance_to(a) for a in anchors),
                              tuple(As), b, beta, alpha)
        try:
            return _with_kkt_oracle(spec, seed)
        except ValueError:  # an ill-conditioned draw whose oracle is refused
            continue
    raise ValueError("no full-row-rank draw in 5 attempts; change seed or dims")


def _saddle_steps(A: np.ndarray, alpha: float, r, s) -> tuple:
    """Step sizes (r, s) as given, or r = s = sqrt(1.05 (1 - alpha + alpha^2) rho(A'A)).

    The default sits 5% inside the certified region r*s > (1 - alpha +
    alpha^2) rho(A'A), or is inf where that overflows; A = 0 takes r = s = 1.
    """
    if (r is None) != (s is None):
        raise ValueError("give both r and s, or neither")
    if r is None:
        try:
            base = (1.0 - alpha + alpha ** 2) * spectral_radius_gram(A)
        except OverflowError:
            base = float("inf")
        r = s = float(np.sqrt(1.05 * base)) if base > 0 else 1.0
    return r, s


def make_matrix_game(A, *, r: float = None, s: float = None,
                     alpha: float = 0.5) -> VariationalInstance:
    """Zero-sum matrix game on probability simplices.

    Both objective pieces are simplex indicators, so theta is identically
    zero and the gap at a saddle point is the pure coupling term. The
    oracle is attached only when it is certain: 1x1 games (both simplices
    are single points) and games whose uniform strategies pass an exact
    best-response check; otherwise w_star is left out.
    """
    A = as_matrix(A, "A")
    m_rows, n_cols = A.shape
    r, s = _saddle_steps(A, alpha, r, s)
    spec = SaddleSpec(SimplexIndicator(), SimplexIndicator(), A, r, s, alpha)

    w_star = None
    if n_cols == 1 and m_rows == 1:
        w_star = BlockVector(spec.block_names(), (np.ones(1), np.ones(1)))
    elif np.any(A != 0.0):
        x = np.full(n_cols, 1.0 / n_cols)
        y = np.full(m_rows, 1.0 / m_rows)
        # value of the coupling -y'Ax at the candidate vs. best responses
        worst_y = float(np.max(-A @ x))
        worst_x = float(np.min(-A.T @ y))
        if worst_y - worst_x <= 1e-10 * (1.0 + float(np.max(np.abs(A)))):
            w_star = BlockVector(spec.block_names(), (x, y))

    return VariationalInstance(spec, w_star)


def make_saddle_quadratic(seed: int, n: int, m: int, *,
                          alpha: float = 0.5, r: float = None,
                          s: float = None) -> VariationalInstance:
    """Random smooth saddle instance f, g = squared distances, exact oracle.

    The stationarity system (x - a - A'y, y - c + Ax) = 0 is always
    nonsingular, so every seed yields an instance.
    """
    if min(n, m) < 1:
        raise ValueError("dimensions must be >= 1")
    rng = SplitMix64(seed)
    A = rng.matrix(m, n)
    a = rng.vector(n)
    c = rng.vector(m)
    r, s = _saddle_steps(A, alpha, r, s)
    spec = SaddleSpec(QuadraticCost.distance_to(a), QuadraticCost.distance_to(c),
                      A, r, s, alpha)
    return _with_kkt_oracle(spec, seed)


# ---------------------------------------------------------------------------
# JSON round trip

def instance_to_document(instance: VariationalInstance) -> dict:
    """Plain-dict form of an instance; matrices as row-major nested lists."""
    spec = instance.spec
    As, b = spec.coupling
    doc = {"family": instance.family, "seed": instance.seed,
           "m": len(As), "A": [A.tolist() for A in As],
           "b": None if b is None else b.tolist(), "beta": None,
           "r": None, "s": None, "alpha": None, "P": None,
           "objective": [f.to_json() for f in spec.objectives],
           "w_star": None if instance.w_star is None
           else [blk.tolist() for blk in instance.w_star.blocks]}
    if instance.family == "two-block":
        doc.update(beta=spec.beta, r=spec.r, s=spec.s, P=spec.P.tolist())
    elif instance.family == "multi-block":
        doc.update(beta=spec.beta, alpha=spec.alpha)
    else:
        doc.update(r=spec.r, s=spec.s, alpha=spec.alpha)
    return doc


def instance_from_document(doc: dict) -> VariationalInstance:
    """Rebuild an instance from its document form, oracle included.

    A document that is not an object, or lacks a field or gives one of the
    wrong type, raises ValueError naming what is wrong.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"instance document must be a JSON object, got {type(doc).__name__}")
    try:
        family = doc["family"]
        fs = [ProxOp.from_json(fdoc) for fdoc in doc["objective"]]
        if family == "two-block":
            spec = TwoBlockSpec(fs[0], fs[1], doc["A"][0], doc["A"][1], doc["b"],
                                doc["beta"], doc["r"], doc["s"], doc["P"])
        elif family == "multi-block":
            spec = MultiBlockSpec(tuple(fs), tuple(np.array(A) for A in doc["A"]),
                                  doc["b"], doc["beta"], doc["alpha"])
        elif family == "saddle":
            spec = SaddleSpec(fs[0], fs[1], doc["A"][0], doc["r"], doc["s"], doc["alpha"])
        else:
            raise ValueError(f"unknown family {family!r}")
        w_star = doc.get("w_star")
        if w_star is not None:
            w_star = BlockVector(spec.block_names(), tuple(np.array(blk) for blk in w_star))
    except KeyError as exc:
        raise ValueError(f"instance document has no field {exc}") from None
    except (TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from None
    return VariationalInstance(spec, w_star, doc.get("seed"))
