"""Prediction-correction solvers for structured convex problems.

A run alternates a family-specific prediction step with a matrix-driven
correction. The plain mode carries the classical O(1/t) ergodic guarantee;
the accelerated mode reuses the same correction under a vanishing
extrapolation schedule and tightens the pointwise rate to O(1/t^2) while
the gap at the accelerated iterate decays like the schedule itself. Both
run only after the scheme's convergence certificate (two positive definite
matrices derived from the correction) has been checked.
"""
from .blocks import BlockVector
from .framework import (ConvergenceCertificate, CorrectionSpec, SingularCorrectionError,
                        SolverState, SubproblemError, UncertifiedSpecError, certify, run)
from .linalg import (AsymmetryError, NotPositiveDefiniteError, cholesky_pd_check,
                     solve_spd, spectral_radius_gram)
from .problems import (FOperator, SplitMix64, VariationalInstance, gap_at,
                       instance_from_document, instance_to_document, kkt_oracle,
                       make_matrix_game, make_multiblock_quadratic,
                       make_saddle_quadratic, make_two_block_l1,
                       make_two_block_quadratic)
from .prox import (BoxIndicator, L1Penalty, ProxOp, QuadraticCost, SimplexIndicator,
                   project_box, project_simplex, prox_quadratic, soft_threshold)
from .schedule import DEFAULT_TAU_INIT, tau_at, tau_next
from .solvers import MultiBlockSpec, SaddleSpec, TwoBlockSpec, solve_prediction_inclusion
from .trace import CSV_COLUMNS, IterationTrace, TraceRecord

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError", "BlockVector", "BoxIndicator", "CSV_COLUMNS",
    "ConvergenceCertificate", "CorrectionSpec", "DEFAULT_TAU_INIT", "FOperator",
    "IterationTrace", "L1Penalty", "MultiBlockSpec", "NotPositiveDefiniteError",
    "ProxOp", "QuadraticCost", "SaddleSpec", "SimplexIndicator",
    "SingularCorrectionError", "SolverState", "SplitMix64", "SubproblemError",
    "TraceRecord", "TwoBlockSpec", "UncertifiedSpecError",
    "VariationalInstance", "certify", "cholesky_pd_check", "gap_at",
    "instance_from_document", "instance_to_document", "kkt_oracle",
    "make_matrix_game", "make_multiblock_quadratic", "make_saddle_quadratic",
    "make_two_block_l1", "make_two_block_quadratic", "project_box",
    "project_simplex", "prox_quadratic", "run", "solve_prediction_inclusion",
    "soft_threshold", "solve_spd", "spectral_radius_gram", "tau_at", "tau_next",
]
