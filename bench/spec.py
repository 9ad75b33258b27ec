"""What the benchmark measures: workloads, metric names, units and bounds.

This module is plain data so that it imports without numpy or the library.
Run it as a script to rewrite ``BENCHMARK.json`` at the repository root:

    python3 bench/spec.py
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

RUN_SECONDS = 30

MODES = ("baseline", "faster")


@dataclass(frozen=True)
class WorkloadSpec:
    """One generated instance, run in both modes.

    iter_budget is the iteration count of each timed ``run`` call and of
    the stored reference columns; cli_budget is the ``--budget`` of each
    timed CLI run; tol_budget caps the untraced run that finds
    iters_to_tol. generator and params are the CLI's ``--generator`` and
    ``--param`` values. calibration names the parts of the speed kernel that
    resemble the workload's dominant cost (see calibration.py), and
    reference_ms is that kernel's median time on the machine the benchmark
    was tuned on.
    """

    name: str
    generator: str
    params: dict
    iter_budget: int
    cli_budget: int
    tol_budget: int
    calibration: tuple
    reference_ms: float
    why: str


WORKLOADS = {w.name: w for w in (
    WorkloadSpec(
        "consensus-l1", "two-block-l1", {"n": 200, "mu": 0.5},
        iter_budget=20, cli_budget=20, tol_budget=150,
        calibration=("dense",), reference_ms=16.5,
        why="two-block l1 consensus, correction dim 600: H-norms, re-validation of "
            "the 600x600 H and M and the gap matvec dominate; one 200x200 solve"),
    WorkloadSpec(
        "saddle-quad", "saddle-quadratic", {"n": 120, "m": 90},
        iter_budget=20, cli_budget=60, tol_budget=500,
        calibration=("cholesky",), reference_ms=6.0,
        why="quadratic saddle, dim 210: two SPD subproblem solves per iteration "
            "(Python Cholesky plus LU) dominate; H-norms are minor"),
    WorkloadSpec(
        "multiblock-small", "multi-block-quadratic", {"m": 8, "n_i": 8, "l": 16},
        iter_budget=20, cli_budget=60, tol_budget=1500,
        calibration=("small", "cholesky"), reference_ms=7.5,
        why="eight tiny 8x8 solves per iteration: per-call Python overhead "
            "(validation, BlockVector, dispatch) dominates flops; largest CSV share"),
)}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("baseline.iter_ms", "ms", "lower", 0.25),
    ("faster.iter_ms", "ms", "lower", 0.25),
    ("cli_run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Per-layer metrics measured once per mode, emitted as "<mode>.<name>".
PER_MODE_LAYER = (
    ("linalg.cholesky_pd_check.calls_per_iter", "count", "lower"),
    ("linalg.cholesky_pd_check.self_ms_per_iter", "ms", "lower"),
    ("linalg.cholesky_pd_check.flops_per_iter", "flop", "lower"),
    ("linalg.cholesky_pd_check.distinct_ratio", "ratio", "higher"),
    ("linalg.solve_spd.self_ms_per_iter", "ms", "lower"),
    ("linalg.weighted_norm_sq.calls_per_iter", "count", "lower"),
    ("linalg.weighted_norm_sq.self_ms_per_iter", "ms", "lower"),
    ("linalg.check_symmetric.calls_per_iter", "count", "lower"),
    ("linalg.check_symmetric.self_ms_per_iter", "ms", "lower"),
    ("linalg.as_matrix.bytes_per_iter", "B", "lower"),
    ("framework.correct.self_ms_per_iter", "ms", "lower"),
    ("framework.run.self_ms_per_iter", "ms", "lower"),
    ("framework.run.failures", "count", "lower"),
    ("framework.run.alloc_peak_mb", "MB", "lower"),
    ("solvers.predict.self_ms_per_iter", "ms", "lower"),
    ("solvers.solve_prediction_inclusion.calls_per_iter", "count", "lower"),
    ("solvers.solve_prediction_inclusion.self_us_per_call", "us", "lower"),
    ("prox.prox.calls_per_iter", "count", "lower"),
    ("prox.prox.self_us_per_iter", "us", "lower"),
    ("problems.gap_to_star.self_us_per_iter", "us", "lower"),
    ("problems.feasibility.self_us_per_iter", "us", "lower"),
    ("problems.objective.self_us_per_iter", "us", "lower"),
    ("blocks.BlockVector.constructions_per_iter", "count", "lower"),
    ("blocks.BlockVector.self_us_per_iter", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Per-layer metrics of the workload as a whole.
WORKLOAD_LAYER = (
    ("linalg.spectral_radius_gram.ms", "ms", "lower"),
    ("framework.certify.ms", "ms", "lower"),
    ("problems.generate.ms", "ms", "lower"),
    ("problems.kkt_oracle.ms", "ms", "lower"),
    ("solvers.iters_to_tol.baseline", "count", "lower"),
    ("solvers.iters_to_tol.faster", "count", "lower"),
    ("cli.build_instance.ms", "ms", "lower"),
    ("cli.write_trace_csv.ms", "ms", "lower"),
    ("cli.write_trace_csv.bytes", "B", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in output order."""
    out = [(f"{mode}.{name}", unit, better)
           for mode in MODES for name, unit, better in PER_MODE_LAYER]
    return out + list(WORKLOAD_LAYER)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")
