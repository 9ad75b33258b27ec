"""Generic prediction-correction engine.

A scheme is specified by two matrices (Q, M) on the image vector
v = spec.image(w), which is the whole corrected state: Q scales the
prediction inclusion, and M drives the correction v <- v - M (v - v_tilde).
Each family's predictor reads its blocks from v alone; faster mode carries
one more state item, the previous accelerated point breve_prev.
Before any run the scheme must pass the convergence condition, checked here
as a certificate: H = Q M^{-1} symmetric positive definite and
G = Q^T + Q - M^T H M positive definite. certify checks it on each connected
component of the nonzero pattern of (Q, M), factoring small stacked blocks
in place of dim x dim matrices. It forms G from M^T Q (equal, as H M = Q),
and H from a closed-form M^{-1} where M's nonzero pattern allows it (every
two-block and saddle scheme), else from a dense solve. H and G stay in
that block form, and the run loop applies H and M on the same components.
All rate guarantees measured by this package hold exactly under that
certificate.

The run loop supports two modes. Baseline mode alternates a family-specific
prediction with the M-correction and reports metrics at the running average
of prediction points (the ergodic point of the O(1/t) bound). Faster mode
keeps the accelerated iterate pair (breve_prev, breve) tied together by the
tau-weighted extrapolation and reports metrics at the accelerated iterate
itself (the non-ergodic point), whose gap decays like tau^t and whose
squared successive-difference residual decays like 1/t^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .linalg import (PD_TOL, AsymmetryError, _BlockDiagonal, _checked, _cholesky_stack,
                     _component_stacks, _gather, as_matrix)
from .schedule import DEFAULT_TAU_INIT, _check_unit_interval, tau_next
from .trace import IterationTrace, TraceRecord


class SingularCorrectionError(ValueError):
    """The correction matrix M is singular; H = Q M^{-1} does not exist."""


class UncertifiedSpecError(RuntimeError):
    """Refusing to run a scheme whose convergence certificate failed."""


class SubproblemError(RuntimeError):
    """A prediction subproblem could not be solved in closed form."""


class _ComponentFailure(Exception):
    """A spec's predict or a ProxOp raised inside the run loop; str is the failure."""


def _component(where: str, k: int, call, *args):
    """call(*args) for plug-in code: its exception ends the run as _ComponentFailure.

    SubproblemError and FloatingPointError pass through to keep their own
    outcomes (the subproblem's reason, divergence).
    """
    try:
        return call(*args)
    except (SubproblemError, FloatingPointError):
        raise
    except Exception as exc:  # the plug-in boundary: any failure there ends the run
        raise _ComponentFailure(f"{type(exc).__name__} in {where} at k={k}: {exc}") from exc


@dataclass(frozen=True)
class CorrectionSpec:
    """The matrix pair (Q, M) defining one prediction-correction scheme."""

    Q: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", as_matrix(self.Q, "Q"))
        object.__setattr__(self, "M", as_matrix(self.M, "M"))
        dim = self.Q.shape[0]
        for name, mat in (("Q", self.Q), ("M", self.M)):
            if mat.shape != (dim, dim):
                raise ValueError(
                    f"{name} must be square of dim {dim}, got {mat.shape}")


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Positive-definiteness evidence for H = Q M^{-1} and G = Q^T+Q - M^T H M.

    H and G are zero between different connected components of (Q, M) and
    are held as linalg._BlockDiagonal operators on those components: H @ x
    applies one, and H.dense() gives the dim x dim array. h_min_pivot / g_min_pivot hold the smallest Cholesky pivot when
    the check passed, or, when it failed, the offending pivot with the
    smallest index, the one a whole-matrix pivot loop reports. Pivots come
    from each component's own factorization, so they can differ in their
    last digits from a whole-matrix factorization's. G comes from M^T Q, so
    on saddle schemes g_min_pivot (also in summary.json) can also differ in
    its last digits from an M^T H M evaluation.
    """

    H: _BlockDiagonal
    G: _BlockDiagonal
    h_min_pivot: float
    g_min_pivot: float
    satisfied: bool


def _closed_form(M: np.ndarray):
    """(d, N, R, C) when the stack M = D + N has M^-1 = D^-1 - D^-1 N D^-1, else None.

    That holds when every d_i is nonzero and no position is both a row (R)
    and a column (C) holding a nonzero of some block's N, so N D^-1 N = 0:
    every two-block and saddle scheme. N is the R x C part of each block.
    """
    d = M.diagonal(axis1=1, axis2=2)
    nz = d != 0
    R = (np.count_nonzero(M, axis=2) > nz).any(axis=0)
    C = (np.count_nonzero(M, axis=1) > nz).any(axis=0)
    if not nz.all() or np.any(R & C):
        return None
    return d, M[:, R][:, :, C], R, C


def _h_blocks(Q: np.ndarray, M: np.ndarray, form) -> np.ndarray:
    """Q M^{-1} of a stack of blocks, before symmetrizing."""
    if form is None:
        try:  # M^-T Q^T = H^T, C-ordered; symmetrizing it gives the same H
            return np.linalg.solve(M.transpose(0, 2, 1), Q.transpose(0, 2, 1))
        except np.linalg.LinAlgError as exc:
            raise SingularCorrectionError(f"correction matrix M is singular: {exc}") from exc
    d, N, R, C = form
    inv = 1.0 / d[:, None, :]
    H = Q * inv
    H[:, :, C] = (Q[:, :, C] - H[:, :, R] @ N) * inv[:, :, C]
    return H


def _g_blocks(Q: np.ndarray, M: np.ndarray, form) -> np.ndarray:
    """Q^T + Q - M^T Q of a stack of blocks, before symmetrizing."""
    G = Q.transpose(0, 2, 1) + Q
    if form is None:
        G -= M.transpose(0, 2, 1) @ Q
    else:  # M^T Q = D Q + N^T Q
        d, N, R, C = form
        G -= d[:, :, None] * Q
        G[:, C] -= N.transpose(0, 2, 1) @ Q[:, R]
    return G


def _symmetrized(S: np.ndarray, name: str) -> np.ndarray:
    """(S + S^T) / 2 in place for a stack S, then its one finiteness pass."""
    S += S.transpose(0, 2, 1)
    S *= 0.5
    return _checked(S, 3, name)


def _verdict(stacks: list, blocks: list) -> tuple:
    """(positive definite, smallest pivot or first offending pivot).

    blocks[i] holds the symmetric blocks on the components stacks[i]; the
    threshold and the pivot order are those of the whole matrix they form.
    """
    top = max((float(S.diagonal(axis1=1, axis2=2).max()) for S in blocks), default=0.0)
    threshold = PD_TOL * (1.0 + top)
    low, bad = (np.inf if blocks else 0.0), (np.inf, 0.0)  # bad: (index, pivot)
    for idx, S in zip(stacks, blocks):
        L, first, value = _cholesky_stack(S, threshold)
        fail = first >= 0
        if fail.any():
            at = idx[fail, first[fail]]
            bad = min(bad, (at.min(), value[fail][at.argmin()]))
        else:
            low = min(low, float(np.diagonal(L, axis1=1, axis2=2).min()))
    if bad[0] < np.inf:
        return False, float(bad[1])
    return True, low ** 2


def certify(spec: CorrectionSpec) -> ConvergenceCertificate:
    """Build the convergence certificate for a correction spec.

    The nonzero pattern of |Q| + |M| splits the indices into connected
    components, and components of one size are gathered into one stack of
    small blocks. Each stack yields its blocks of H = Q M^{-1}, in closed
    form where the stack's pattern allows it (see _closed_form) and by a
    stacked dense solve otherwise, and of G = Q^T + Q - M^T Q (as H M = Q).
    A block-diagonal matrix factors as its blocks do, so stacked Cholesky
    factorizations, held to the whole matrix's threshold, decide both
    conditions; a failure reports the offending pivot with the smallest
    index. A spec of one component is one stack of one block, Q and M
    themselves. H and G are returned as operators on the stacks of blocks
    (linalg._BlockDiagonal: op @ x, op.dense()), with no dim x dim array
    unless the spec has one component or a dimension up to
    linalg._DENSE_DIM.

    H is symmetric in exact arithmetic for every scheme in this package, so
    asymmetry beyond 1e-8 relative to the largest entry of Q M^{-1} signals
    a construction error and raises rather than failing the condition. The
    floating-point remainder is symmetrized away before the pivot checks,
    which use the package's one threshold, linalg.PD_TOL.

    Raises
    ------
    SingularCorrectionError
        If M is singular.
    AsymmetryError
        If Q M^{-1} is asymmetric beyond tolerance.
    ValueError
        If H or G has a non-finite entry.
    """
    stacks = _component_stacks(spec.Q, spec.M)
    parts = list(zip(_gather(stacks, spec.Q), _gather(stacks, spec.M)))
    forms = [_closed_form(Mb) for _, Mb in parts]
    Hs = [_h_blocks(Qb, Mb, form) for (Qb, Mb), form in zip(parts, forms)]
    # over the whole of Q M^-1; H - H^T is antisymmetric, so its max is max |H - H^T|
    top = max((float(np.abs(H).max()) for H in Hs), default=0.0)
    asym = max((float((H - H.transpose(0, 2, 1)).max()) for H in Hs), default=0.0)
    if asym > 1e-8 * (1.0 + top):
        raise AsymmetryError(
            f"Q M^-1 asymmetry {asym:.3e} exceeds tolerance {1e-8 * (1.0 + top):.3e}")
    Hs = [_symmetrized(H, "H") for H in Hs]
    h_ok, h_min_pivot = _verdict(stacks, Hs)
    Gs = [_symmetrized(_g_blocks(Qb, Mb, form), "G")
          for (Qb, Mb), form in zip(parts, forms)]
    g_ok, g_min_pivot = _verdict(stacks, Gs)
    return ConvergenceCertificate(H=_BlockDiagonal(stacks, Hs), G=_BlockDiagonal(stacks, Gs),
                                  h_min_pivot=h_min_pivot,
                                  g_min_pivot=g_min_pivot, satisfied=h_ok and g_ok)


def run(instance, mode: str, budget: int, *, tau_init: float = DEFAULT_TAU_INIT,
        w0: BlockVector | None = None, residual_floor: float | None = None,
        override_uncertified: bool = False) -> IterationTrace:
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
        subproblem that cannot be solved, an overflow or invalid value
        (divergence, reported as "diverged at k=..."), an exception raised
        by the spec's predict or by an objective's prox or value (reported
        as "<Type> in predict at k=...: <message>", or "in objective"), or
        an inf or NaN in the corrected state or the objective ("non-finite
        value at k=...") ends the run early with ``failure`` set and the
        records before it kept.
    """
    if mode not in ("baseline", "faster"):
        raise ValueError(f"mode must be 'baseline' or 'faster', got {mode!r}")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    spec = instance.spec
    cspec = spec.correction_spec()
    cert = certify(cspec)
    if not cert.satisfied and not override_uncertified:
        raise UncertifiedSpecError(
            "convergence certificate failed "
            f"(h_min_pivot={cert.h_min_pivot:.3e}, g_min_pivot={cert.g_min_pivot:.3e}); "
            "pass override_uncertified=True to run anyway")

    zero = BlockVector.zeros(spec.block_names(), spec.block_dims())
    w_start = zero if w0 is None else w0
    if not w_start.same_structure(zero):
        raise ValueError("w0 does not match the spec's block structure")
    v = spec.image(w_start)
    H, M = cert.H, cert.H.gather(cspec.M)  # both on the certificate's components

    has_oracle = getattr(instance, "w_star", None) is not None
    v_star = spec.image(instance.w_star) if has_oracle else None
    initial_vdist = float((v - v_star) @ (H @ (v - v_star))) if has_oracle else None

    trace = IterationTrace(
        family=instance.family, mode=mode, budget=budget, tau_init=float(tau_init),
        certificate=cert, uncertified=not cert.satisfied,
        initial_vdist_sq_h=initial_vdist)

    # Baseline is the tau = 1 case of faster: the same predictor and
    # correction, with only the theorem point and the residual pair differing.
    faster = mode == "faster"
    tau_k = _check_unit_interval(tau_init, "tau_init") if faster else 1.0
    breve_prev, v_breve_prev = w_start, v
    tilde_sum = None
    # Overflow or an invalid value anywhere in an iteration means the run has
    # diverged; raising at the first one keeps the rows before it intact.
    with np.errstate(over="raise", invalid="raise"):
        for k in range(budget):
            try:
                if faster:
                    tau_k = tau_next(tau_k)
                w_breve, w_tilde = _component("predict", k, spec.predict, v, breve_prev, tau_k)
                v_tilde = spec.image(w_tilde)
                if faster:
                    measured = w_breve
                    v_breve = spec.image(w_breve)
                    m_diff = M @ (v_breve - v_breve_prev)
                    v_breve_prev = v_breve
                else:
                    tilde_sum = w_tilde if tilde_sum is None else tilde_sum + w_tilde
                    measured = (1.0 / (k + 1)) * tilde_sum
                    m_diff = M @ (v - v_tilde)
                residual = float(m_diff @ (H @ m_diff))
                breve_prev = w_breve
                # baseline's residual product is its correction step
                v_next = v - (M @ (v - v_tilde) if faster else m_diff)
                theta = _component("objective", k, instance.objective, measured)
                # a custom component can hand back inf or NaN without any
                # floating-point operation raising
                if not (np.isfinite(v_next).all() and math.isfinite(theta)):
                    trace.failure = f"non-finite value at k={k}"
                    break
                v = v_next
                if has_oracle:
                    gap = instance._gap_to_star(measured, theta)
                    v_err = v - v_star
                    vdist = float(v_err @ (H @ v_err))
                else:
                    gap, vdist = 0.0, None
                record = TraceRecord(
                    k=k, tau=tau_k, gap_at_star=gap,
                    feasibility=instance.feasibility(measured),
                    pointwise_residual=residual, objective=theta, vdist_sq_h=vdist)
            except SubproblemError as exc:
                trace.failure = str(exc)
                break
            except FloatingPointError as exc:
                trace.failure = f"diverged at k={k}: {exc}"
                break
            except _ComponentFailure as exc:
                trace.failure = str(exc)
                break
            trace.records.append(record)
            if residual_floor is not None and residual < residual_floor:
                break

    trace.final_v = v
    trace.final_breve = breve_prev
    return trace
