"""Generic prediction-correction engine.

A scheme is specified by three matrices (L, Q, M): L maps a full iterate w
to the image-space state v = L w that the correction updates, Q scales the
prediction inclusion, and M drives the correction v <- v - M (v - v_tilde).
Before any run the scheme must pass the convergence condition, checked here
as a certificate: H = Q M^{-1} symmetric positive definite and
G = Q^T + Q - M^T H M positive definite. All rate guarantees measured by
this package hold exactly under that certificate.

The run loop supports two modes. Baseline mode alternates a family-specific
prediction with the M-correction and reports metrics at the running average
of prediction points (the ergodic point of the O(1/t) bound). Faster mode
keeps the accelerated iterate pair (breve_prev, breve) tied together by the
tau-weighted extrapolation and reports metrics at the accelerated iterate
itself (the non-ergodic point), whose gap decays like tau^t and whose
squared successive-difference residual decays like 1/t^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .linalg import as_matrix, check_symmetric, cholesky_pd_check
from .schedule import DEFAULT_TAU_INIT, _check_unit_interval, tau_next
from .trace import IterationTrace, TraceRecord


class SingularCorrectionError(ValueError):
    """The correction matrix M is singular; H = Q M^{-1} does not exist."""


class UncertifiedSpecError(RuntimeError):
    """Refusing to run a scheme whose convergence certificate failed."""


class SubproblemError(RuntimeError):
    """A prediction subproblem could not be solved in closed form."""


@dataclass(frozen=True)
class CorrectionSpec:
    """The matrix triple (L, Q, M) defining one prediction-correction scheme."""

    L: np.ndarray
    Q: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "L", as_matrix(self.L, "L"))
        object.__setattr__(self, "Q", as_matrix(self.Q, "Q"))
        object.__setattr__(self, "M", as_matrix(self.M, "M"))
        dim_v = self.L.shape[0]
        for name, mat in (("Q", self.Q), ("M", self.M)):
            if mat.shape != (dim_v, dim_v):
                raise ValueError(
                    f"{name} must be square of dim {dim_v}, got {mat.shape}")

    @property
    def dim_v(self) -> int:
        return self.L.shape[0]

    @property
    def dim_w(self) -> int:
        return self.L.shape[1]


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Positive-definiteness evidence for H = Q M^{-1} and G = Q^T+Q - M^T H M.

    h_min_pivot / g_min_pivot hold the smallest Cholesky pivot when the
    check passed, or the first offending pivot value when it failed.
    """

    H: np.ndarray
    G: np.ndarray
    h_min_pivot: float
    g_min_pivot: float
    satisfied: bool


def _min_pivot(result) -> float:
    if result.positive_definite:
        d = np.diagonal(result.factor)
        return float(np.min(d) ** 2) if d.size else 0.0
    return float(result.pivot_value)


def certify(spec: CorrectionSpec, tol: float = 1e-10) -> ConvergenceCertificate:
    """Build the convergence certificate for a correction spec.

    H is computed as Q M^{-1}; in exact arithmetic it is symmetric for every
    scheme in this package, so asymmetry beyond 1e-8 relative signals a
    construction error and raises rather than failing the condition. The
    floating-point remainder is symmetrized away before the pivot checks.

    Raises
    ------
    SingularCorrectionError
        If M is singular.
    AsymmetryError
        If Q M^{-1} is asymmetric beyond tolerance.
    """
    try:
        h_raw = np.linalg.solve(spec.M.T, spec.Q.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularCorrectionError(f"correction matrix M is singular: {exc}") from exc
    check_symmetric(h_raw, 1e-8, "Q M^-1")
    H = 0.5 * (h_raw + h_raw.T)
    G = spec.Q.T + spec.Q - spec.M.T @ H @ spec.M
    G = 0.5 * (G + G.T)
    h_res = cholesky_pd_check(H, tol)
    g_res = cholesky_pd_check(G, tol)
    return ConvergenceCertificate(
        H=H, G=G,
        h_min_pivot=_min_pivot(h_res),
        g_min_pivot=_min_pivot(g_res),
        satisfied=h_res.positive_definite and g_res.positive_definite,
    )


@dataclass
class SolverState:
    """Mutable iteration state handed to the family predictors.

    v_curr is the authoritative image-space state. w_curr mirrors it as
    named blocks whenever L is invertible on the stored blocks (two-block
    and saddle schemes, where L = I); for the image-space multi-block
    scheme it is None after the first correction. breve_prev holds the full
    accelerated iterate of the previous step; predictors read it only when
    tau < 1.
    """

    v_curr: np.ndarray
    w_curr: BlockVector | None
    breve_prev: BlockVector | None = None


def run(instance, mode: str, budget: int, *, tau_init: float = DEFAULT_TAU_INIT,
        w0: BlockVector | None = None, residual_floor: float | None = None,
        override_uncertified: bool = False, tol: float = 1e-10) -> IterationTrace:
    """Drive a full prediction-correction run and collect its trace.

    Parameters
    ----------
    instance
        A variational instance bundling the problem data, its solver spec,
        and the oracle point when one is known.
    mode : {"baseline", "faster"}
        Baseline alternates prediction and correction; faster adds the
        tau-scheduled extrapolation.
    budget : int
        Number of iterations; budget 0 returns an empty trace.
    tau_init : float
        Schedule seed for faster mode (ignored by baseline).
    w0 : BlockVector, optional
        Start point; defaults to zeros in all blocks.
    residual_floor : float, optional
        Stop after the first iteration whose pointwise residual falls below
        this floor. The default is budget-only: rate measurement needs
        uncensored traces.
    override_uncertified : bool
        Run even when the certificate fails (negative testing only); the
        trace is marked uncertified.

    Returns
    -------
    IterationTrace
        Records evaluated at the mode's theorem point, plus final state. A
        subproblem that cannot be solved, or an overflow or invalid value
        (divergence, reported as "diverged at k=..."), ends the run early
        with ``failure`` set and the records before it kept.
    """
    if mode not in ("baseline", "faster"):
        raise ValueError(f"mode must be 'baseline' or 'faster', got {mode!r}")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    spec = instance.spec
    cspec = spec.correction_spec()
    cert = certify(cspec, tol)
    if not cert.satisfied and not override_uncertified:
        raise UncertifiedSpecError(
            "convergence certificate failed "
            f"(h_min_pivot={cert.h_min_pivot:.3e}, g_min_pivot={cert.g_min_pivot:.3e}); "
            "pass override_uncertified=True to run anyway")

    w_start = spec.initial_point() if w0 is None else w0
    if not w_start.same_structure(spec.initial_point()):
        raise ValueError("w0 does not match the spec's block structure")
    v = spec.image(w_start)
    H, M = cert.H, cspec.M

    has_oracle = getattr(instance, "w_star", None) is not None
    v_star = spec.image(instance.w_star) if has_oracle else None
    initial_vdist = float((v - v_star) @ (H @ (v - v_star))) if has_oracle else None

    trace = IterationTrace(
        family=instance.family, mode=mode, budget=budget, tau_init=float(tau_init),
        certificate=cert, uncertified=not cert.satisfied, has_oracle=has_oracle,
        initial_vdist_sq_h=initial_vdist)

    # Baseline is the tau = 1 case of faster: the same predictor and
    # correction, with only the theorem point and the residual pair differing.
    faster = mode == "faster"
    tau_k = _check_unit_interval(tau_init, "tau_init") if faster else 1.0
    state = SolverState(v_curr=v, w_curr=spec.point_from_image(v), breve_prev=w_start)
    v_breve_prev = v
    tilde_sum = None
    # Overflow or an invalid value anywhere in an iteration means the run has
    # diverged; raising at the first one keeps the rows before it intact.
    with np.errstate(over="raise", invalid="raise"):
        for k in range(budget):
            try:
                if faster:
                    tau_k = tau_next(tau_k)
                w_breve, w_tilde = spec.predict(state, tau_k)
                v_tilde = spec.image(w_tilde)
                if faster:
                    measured = w_breve
                    v_breve = spec.image(w_breve)
                    diff = v_breve - v_breve_prev
                    v_breve_prev = v_breve
                else:
                    tilde_sum = w_tilde if tilde_sum is None else tilde_sum + w_tilde
                    measured = (1.0 / (k + 1)) * tilde_sum
                    diff = state.v_curr - v_tilde
                m_diff = M @ diff
                residual = float(m_diff @ (H @ m_diff))
                state.breve_prev = w_breve

                state.v_curr = state.v_curr - M @ (state.v_curr - v_tilde)
                state.w_curr = spec.point_from_image(state.v_curr)

                if has_oracle:
                    gap = instance.gap_to_star(measured)
                    v_err = state.v_curr - v_star
                    vdist = float(v_err @ (H @ v_err))
                else:
                    gap, vdist = 0.0, None
                record = TraceRecord(
                    k=k, tau=tau_k, gap_at_star=gap,
                    feasibility=instance.feasibility(measured),
                    pointwise_residual=residual,
                    objective=instance.objective(measured),
                    vdist_sq_h=vdist)
            except SubproblemError as exc:
                trace.failure = str(exc)
                break
            except FloatingPointError as exc:
                trace.failure = f"diverged at k={k}: {exc}"
                break
            trace.records.append(record)
            if residual_floor is not None and residual < residual_floor:
                break

    trace.final_v = state.v_curr
    trace.final_w = state.w_curr
    trace.final_breve = state.breve_prev
    return trace
