"""Test problems with ground-truth oracles, plus the gap metrics.

Every instance bundles a solver spec with the pieces of its variational
form: theta (the separable objective value), the affine skew operator F,
and, when one is analytically available, the oracle point w_star. The gap
reported in traces is

    gap(w_hat; w_ref) = theta(u_hat) - theta(u_ref) + (w_hat - w_ref)' F(w_ref)

which equals the Lagrangian difference for the linearly constrained
families and the primal-dual function difference for the saddle family.

Random data comes from an explicit splitmix64 stream rather than any
library generator so that (seed, dims) pins an instance bit-for-bit across
platforms and implementations: each draw maps the top 53 bits of the next
64-bit word into [-1, 1].
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .linalg import as_matrix, as_vector, cholesky_pd_check, spectral_radius_gram
from .prox import L1Penalty, ProxOp, QuadraticCost, SimplexIndicator, soft_threshold
from .solvers import MultiBlockSpec, SaddleSpec, TwoBlockSpec

FAMILIES = ("two-block", "multi-block", "saddle")

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream: z = seed += 0x9E3779B97F4A7C15, then two xor-mul mixes."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One draw in [-1, 1] from the top 53 bits."""
        return 2.0 * ((self.next_uint64() >> 11) * 2.0 ** -53) - 1.0

    def vector(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.vector(rows * cols).reshape(rows, cols)


class FOperator:
    """Affine map F(w) = K w + h with skew-symmetric K.

    Skewness is what makes the gap function transfer between reference
    points, so it is asserted at construction rather than trusted.
    """

    def __init__(self, K, h):
        self.K = as_matrix(K, "K")
        self.h = as_vector(h, "h")
        if self.K.shape[0] != self.K.shape[1] or self.K.shape[0] != self.h.size:
            raise ValueError("K must be square and match h")
        scale = 1.0 + float(np.max(np.abs(self.K))) if self.K.size else 1.0
        if self.K.size and float(np.max(np.abs(self.K + self.K.T))) > 1e-12 * scale:
            raise ValueError("linear part of F must be skew-symmetric")

    def __call__(self, w) -> np.ndarray:
        flat = w.concat() if isinstance(w, BlockVector) else as_vector(w, "w")
        return self.K @ flat + self.h


@dataclass(frozen=True)
class VariationalInstance:
    """One solvable problem: spec + variational pieces + optional oracle."""

    family: str
    spec: object
    theta: object
    F_op: FOperator
    w_star: BlockVector | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.w_star is not None:
            if not self.w_star.same_structure(self.spec.initial_point()):
                raise ValueError("w_star does not match the spec's blocks")
            if self.feasibility(self.w_star) > 1e-10:
                raise ValueError("oracle point is not feasible")

    def objective(self, w: BlockVector) -> float:
        return float(self.theta(w))

    def feasibility(self, w: BlockVector) -> float:
        """Constraint residual ||sum_i A_i x_i - b||; zero for saddle problems."""
        if self.family == "saddle":
            return 0.0
        if self.family == "two-block":
            res = self.spec.A1 @ w["x1"] + self.spec.A2 @ w["x2"] - self.spec.b
        else:
            res = -self.spec.b
            for i, A in enumerate(self.spec.A_i):
                res = res + A @ w[i]
        return float(np.linalg.norm(res))

    def gap_to_star(self, w: BlockVector) -> float:
        if self.w_star is None:
            raise ValueError("instance has no oracle point")
        return gap_at(w, self.w_star, self)


def gap_at(w_hat: BlockVector, w_ref: BlockVector, instance: VariationalInstance) -> float:
    """theta(u_hat) - theta(u_ref) + (w_hat - w_ref)' F(w_ref)."""
    if not w_hat.same_structure(w_ref):
        raise ValueError("w_hat and w_ref structures disagree")
    diff = w_hat.concat() - w_ref.concat()
    return float(instance.theta(w_hat) - instance.theta(w_ref)
                 + diff @ instance.F_op(w_ref))


# ---------------------------------------------------------------------------
# instance assembly

def _e1_instance(family: str, spec, seed) -> VariationalInstance:
    """Linearly constrained family: theta sums the f_i, F couples x and lam."""
    if family == "two-block":
        fs = (spec.prox_f1, spec.prox_f2)
        As = (spec.A1, spec.A2)
    else:
        fs, As = spec.prox_f_i, spec.A_i
    n = sum(A.shape[1] for A in As)
    l = spec.b.size
    K = np.zeros((n + l, n + l))
    col = 0
    for A in As:
        K[col:col + A.shape[1], n:] = -A.T
        K[n:, col:col + A.shape[1]] = A
        col += A.shape[1]
    h = np.concatenate([np.zeros(n), -spec.b])

    def theta(w):
        return sum(f.value(w[i]) for i, f in enumerate(fs))

    return VariationalInstance(family=family, spec=spec, theta=theta,
                               F_op=FOperator(K, h), seed=seed)


def _saddle_instance(spec: SaddleSpec, seed) -> VariationalInstance:
    n, m = spec.n_primal, spec.n_dual
    K = np.zeros((n + m, n + m))
    K[:n, n:] = -spec.A.T
    K[n:, :n] = spec.A
    h = np.zeros(n + m)

    def theta(w):
        return spec.prox_f.value(w["x"]) + spec.prox_g.value(w["y"])

    return VariationalInstance(family="saddle", spec=spec, theta=theta,
                               F_op=FOperator(K, h), seed=seed)


def kkt_oracle(instance: VariationalInstance) -> BlockVector:
    """Solve the affine optimality system of a quadratic instance directly.

    Assembles the full stationarity + feasibility system and solves it in
    one shot, independent of any iterative scheme, then verifies the
    operator residual at the solution before returning it.
    """
    spec = instance.spec
    if instance.family == "saddle":
        fs = (spec.prox_f, spec.prox_g)
    elif instance.family == "two-block":
        fs = (spec.prox_f1, spec.prox_f2)
    else:
        fs = spec.prox_f_i
    if not all(isinstance(f, QuadraticCost) for f in fs):
        raise ValueError("oracle needs quadratic objectives throughout")

    names = spec.block_names()
    dims = spec.block_dims()
    total = sum(dims)
    kkt = np.zeros((total, total))
    rhs = np.zeros(total)
    offs = np.cumsum((0,) + dims)

    if instance.family == "saddle":
        # (S_f x - c_f - A'y, S_g y - c_g + A x) = 0
        n = dims[0]
        kkt[:n, :n] = fs[0].S
        kkt[:n, n:] = -spec.A.T
        kkt[n:, :n] = spec.A
        kkt[n:, n:] = fs[1].S
        rhs[:n] = fs[0].c
        rhs[n:] = fs[1].c
    else:
        As = (spec.A1, spec.A2) if instance.family == "two-block" else spec.A_i
        l = dims[-1]
        if l < 1:
            raise ValueError("oracle requires at least one constraint row")
        for i, (f, A) in enumerate(zip(fs, As)):
            lo, hi = offs[i], offs[i + 1]
            kkt[lo:hi, lo:hi] = f.S
            kkt[lo:hi, total - l:] = -A.T
            kkt[total - l:, lo:hi] = A
            rhs[lo:hi] = f.c
        rhs[total - l:] = spec.b

    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular optimality system: {exc}") from exc

    w_star = BlockVector.from_concat(names, dims, sol)
    grads = np.concatenate(
        [fs[i].grad(w_star[i]) for i in range(len(fs))]
        + ([np.zeros(dims[-1])] if instance.family != "saddle" else []))
    resid = float(np.linalg.norm(grads + instance.F_op(w_star)))
    if resid > 1e-10 * (1.0 + float(np.linalg.norm(rhs))):
        raise ValueError(f"oracle residual {resid:.3e} out of tolerance")
    return w_star


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
        inst = _e1_instance("two-block", spec, seed)
        try:
            w_star = kkt_oracle(inst)
        except ValueError:
            continue
        return dataclasses.replace(inst, w_star=w_star)
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
    inst = _e1_instance("two-block", spec, seed)
    return dataclasses.replace(inst, w_star=w_star)


def make_multiblock_quadratic(seed: int, m: int, n_i, l: int, *,
                              beta: float = 1.0, alpha: float = 0.5) -> VariationalInstance:
    """Random m-block instance, f_i = (1/2)||x_i - a_i||^2, KKT oracle.

    n_i is one block dimension (shared) or a sequence of length m. The
    stacked constraint matrix must have full row rank so the multiplier is
    unique; degenerate draws are retried at most five times.
    """
    if m < 1:
        raise ValueError("need at least one block")
    dims = [int(n_i)] * m if np.isscalar(n_i) else [int(d) for d in n_i]
    if len(dims) != m or min(dims) < 1 or l < 1:
        raise ValueError("block dimensions must be m positive integers")
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
        inst = _e1_instance("multi-block", spec, seed)
        return dataclasses.replace(inst, w_star=kkt_oracle(inst))
    raise ValueError("no full-row-rank draw in 5 attempts; change seed or dims")


def _saddle_steps(A: np.ndarray, alpha: float, r, s) -> tuple:
    """Step sizes (r, s) as given, or r = s = sqrt(1.05 (1 - alpha + alpha^2) rho(A'A)).

    The default sits 5% inside the certified region r*s > (1 - alpha +
    alpha^2) rho(A'A); A = 0 has no coupling and takes r = s = 1.
    """
    if (r is None) != (s is None):
        raise ValueError("give both r and s, or neither")
    if r is None:
        base = (1.0 - alpha + alpha ** 2) * spectral_radius_gram(A)
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

    inst = _saddle_instance(spec, seed=None)
    if w_star is not None:
        inst = dataclasses.replace(inst, w_star=w_star)
    return inst


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
    inst = _saddle_instance(spec, seed)
    return dataclasses.replace(inst, w_star=kkt_oracle(inst))


# ---------------------------------------------------------------------------
# JSON round trip

def instance_to_document(instance: VariationalInstance) -> dict:
    """Plain-dict form of an instance; matrices as row-major nested lists."""
    spec = instance.spec
    doc = {"family": instance.family, "seed": instance.seed,
           "m": None, "A": None, "b": None, "beta": None,
           "r": None, "s": None, "alpha": None, "P": None}
    if instance.family == "two-block":
        doc.update(m=2, A=[spec.A1.tolist(), spec.A2.tolist()], b=spec.b.tolist(),
                   beta=spec.beta, r=spec.r, s=spec.s, P=spec.P.tolist(),
                   objective=[spec.prox_f1.to_json(), spec.prox_f2.to_json()])
    elif instance.family == "multi-block":
        doc.update(m=spec.m, A=[A.tolist() for A in spec.A_i], b=spec.b.tolist(),
                   beta=spec.beta, alpha=spec.alpha,
                   objective=[f.to_json() for f in spec.prox_f_i])
    else:
        doc.update(m=1, A=[spec.A.tolist()], r=spec.r, s=spec.s, alpha=spec.alpha,
                   objective=[spec.prox_f.to_json(), spec.prox_g.to_json()])
    if instance.w_star is not None:
        doc["w_star"] = [blk.tolist() for blk in instance.w_star.blocks]
    else:
        doc["w_star"] = None
    return doc


def instance_from_document(doc: dict) -> VariationalInstance:
    """Rebuild an instance from its document form, oracle included."""
    family = doc["family"]
    fs = [ProxOp.from_json(fdoc) for fdoc in doc["objective"]]
    if family == "two-block":
        spec = TwoBlockSpec(fs[0], fs[1], doc["A"][0], doc["A"][1], doc["b"],
                            doc["beta"], doc["r"], doc["s"], doc["P"])
        inst = _e1_instance(family, spec, doc.get("seed"))
    elif family == "multi-block":
        spec = MultiBlockSpec(tuple(fs), tuple(np.array(A) for A in doc["A"]),
                              doc["b"], doc["beta"], doc["alpha"])
        inst = _e1_instance(family, spec, doc.get("seed"))
    elif family == "saddle":
        spec = SaddleSpec(fs[0], fs[1], doc["A"][0], doc["r"], doc["s"], doc["alpha"])
        inst = _saddle_instance(spec, doc.get("seed"))
    else:
        raise ValueError(f"unknown family {family!r}")
    if doc.get("w_star") is not None:
        w_star = BlockVector(spec.block_names(),
                             tuple(np.array(blk) for blk in doc["w_star"]))
        inst = dataclasses.replace(inst, w_star=w_star)
    return inst
