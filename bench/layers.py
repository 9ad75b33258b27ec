"""Trace targets for each library layer and the per-layer metrics built on them.

Each target is patched where its callers look the name up (see tracer.py).
Per-iteration metrics come from two traced ``run`` calls on one instance,
one with budget B and one with budget 0: the difference divided by B drops
run's fixed cost (the certificate), which set-up metrics report instead.
"""
from __future__ import annotations

import importlib
import os

import numpy as np

from tracer import OVERHEAD_SPAN, Target

PREDICT = "solvers.predict"
BLOCKVECTOR_INIT = "blocks.BlockVector.__init__"
BLOCKVECTOR_METHODS = ("concat", "from_concat", "zeros", "combine", "__add__",
                       "__sub__", "__mul__", "__rmul__", "dot", "norm",
                       "same_structure", "__getitem__")


def _cholesky_measure(tracer, args, kwargs, result):
    S = np.asarray(args[0] if args else kwargs["S"], dtype=float)
    tracer.add("linalg.cholesky_pd_check.flops", S.shape[0] ** 3 / 3.0)
    if tracer.within(PREDICT):
        # Content hash, so equal matrices rebuilt every iteration count once.
        tracer.note("linalg.cholesky_pd_check.inputs", hash(S.tobytes()))


def _as_matrix_measure(tracer, args, kwargs, result):
    tracer.add("linalg.as_matrix.bytes", result.nbytes)


def _csv_measure(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("cli.write_trace_csv.bytes", os.path.getsize(path))


def _sites(modules, attr):
    return tuple((f"predcorr.{m}", attr) for m in modules)


def _class_sites(module, methods):
    """(module, "Class.method") for every class in module defining a method."""
    mod = importlib.import_module(f"predcorr.{module}")
    return tuple((mod.__name__, f"{name}.{meth}")
                 for name, obj in sorted(vars(mod).items())
                 if isinstance(obj, type) and obj.__module__ == mod.__name__
                 for meth in methods if meth in vars(obj))


def targets():
    """Every wrapped name, grouped under the span name it reports as."""
    return (
        Target("linalg.cholesky_pd_check",
               _sites(("linalg", "framework", "solvers", "problems"), "cholesky_pd_check"),
               _cholesky_measure),
        Target("linalg.solve_spd", _sites(("solvers", "prox"), "solve_spd")),
        Target("linalg.weighted_norm_sq",
               _sites(("framework", "problems"), "weighted_norm_sq")),
        Target("linalg.check_symmetric",
               _sites(("linalg", "framework", "solvers", "prox"), "check_symmetric")),
        Target("linalg.as_matrix",
               _sites(("linalg", "framework", "solvers", "problems", "prox"), "as_matrix"),
               _as_matrix_measure),
        Target("linalg.spectral_radius_gram",
               _sites(("solvers", "problems"), "spectral_radius_gram")),
        Target("framework.certify", _sites(("framework", "cli"), "certify")),
        Target("framework.correct", _sites(("framework",), "correct")),
        Target("framework.run", _sites(("cli",), "run")),
        Target(PREDICT, _class_sites("solvers", ("predict", "predict_baseline",
                                                 "predict_faster"))),
        Target("solvers.solve_prediction_inclusion",
               _sites(("solvers",), "solve_prediction_inclusion")),
        Target("prox.prox", _class_sites("prox", ("prox",))),
        Target("problems.kkt_oracle", _sites(("problems",), "kkt_oracle")),
        Target("problems.gap_to_star", _sites(("problems",), "VariationalInstance.gap_to_star")),
        Target("problems.feasibility", _sites(("problems",), "VariationalInstance.feasibility")),
        Target("problems.objective", _sites(("problems",), "VariationalInstance.objective")),
        Target(BLOCKVECTOR_INIT, _sites(("blocks",), "BlockVector.__init__")),
        Target("blocks.BlockVector.methods",
               tuple(s for m in BLOCKVECTOR_METHODS
                     for s in _sites(("blocks",), f"BlockVector.{m}"))),
        Target("cli.build_instance", _sites(("cli",), "build_instance")),
        Target("cli.write_trace_csv", _sites(("cli",), "write_trace_csv"), _csv_measure),
    )


def setup_metrics(stats) -> dict:
    """Inclusive times of one traced set-up (generator call, then certify)."""
    ms = lambda name: stats.total_s[name] * 1e3
    return {
        "linalg.spectral_radius_gram.ms": ms("linalg.spectral_radius_gram"),
        "framework.certify.ms": ms("framework.certify"),
        "problems.generate.ms": ms("problems.generate"),
        "problems.kkt_oracle.ms": ms("problems.kkt_oracle"),
    }


def cli_metrics(stats) -> dict:
    return {
        "cli.build_instance.ms": stats.total_s["cli.build_instance"] * 1e3,
        "cli.write_trace_csv.ms": stats.total_s["cli.write_trace_csv"] * 1e3,
        "cli.write_trace_csv.bytes": stats.sums["cli.write_trace_csv.bytes"],
    }


def iteration_metrics(full, empty, budget: int) -> dict:
    """Per-iteration layer metrics from traced runs of budget B and budget 0."""
    def per_iter(get):
        return (get(full) - get(empty)) / budget

    def calls(name):
        return per_iter(lambda s: s.calls[name])

    def self_s(*names):
        return per_iter(lambda s: sum(s.self_s[n] for n in names))

    inputs = full.notes.get("linalg.cholesky_pd_check.inputs", [])
    spi_calls = calls("solvers.solve_prediction_inclusion")
    return {
        "linalg.cholesky_pd_check.calls_per_iter": calls("linalg.cholesky_pd_check"),
        "linalg.cholesky_pd_check.self_ms_per_iter": self_s("linalg.cholesky_pd_check") * 1e3,
        "linalg.cholesky_pd_check.flops_per_iter":
            per_iter(lambda s: s.sums["linalg.cholesky_pd_check.flops"]),
        "linalg.cholesky_pd_check.distinct_ratio":
            len(set(inputs)) / len(inputs) if inputs else 0.0,
        "linalg.solve_spd.self_ms_per_iter": self_s("linalg.solve_spd") * 1e3,
        "linalg.weighted_norm_sq.calls_per_iter": calls("linalg.weighted_norm_sq"),
        "linalg.weighted_norm_sq.self_ms_per_iter": self_s("linalg.weighted_norm_sq") * 1e3,
        "linalg.check_symmetric.calls_per_iter": calls("linalg.check_symmetric"),
        "linalg.check_symmetric.self_ms_per_iter": self_s("linalg.check_symmetric") * 1e3,
        "linalg.as_matrix.bytes_per_iter": per_iter(lambda s: s.sums["linalg.as_matrix.bytes"]),
        "framework.correct.self_ms_per_iter": self_s("framework.correct") * 1e3,
        "framework.run.self_ms_per_iter": self_s("framework.run") * 1e3,
        "solvers.predict.self_ms_per_iter": self_s(PREDICT) * 1e3,
        "solvers.solve_prediction_inclusion.calls_per_iter": spi_calls,
        "solvers.solve_prediction_inclusion.self_us_per_call":
            self_s("solvers.solve_prediction_inclusion") * 1e6 / spi_calls if spi_calls else 0.0,
        "prox.prox.calls_per_iter": calls("prox.prox"),
        "prox.prox.self_us_per_iter": self_s("prox.prox") * 1e6,
        "problems.gap_to_star.self_us_per_iter": self_s("problems.gap_to_star") * 1e6,
        "problems.feasibility.self_us_per_iter": self_s("problems.feasibility") * 1e6,
        "problems.objective.self_us_per_iter": self_s("problems.objective") * 1e6,
        "blocks.BlockVector.constructions_per_iter": calls(BLOCKVECTOR_INIT),
        "blocks.BlockVector.self_us_per_iter":
            self_s(BLOCKVECTOR_INIT, "blocks.BlockVector.methods") * 1e6,
    }


# Span names grouped by library layer, for the self-time share report.
LAYER_GROUPS = {
    "linalg.factor+solve": ("linalg.cholesky_pd_check", "linalg.solve_spd"),
    "linalg.norms+validation": ("linalg.weighted_norm_sq", "linalg.check_symmetric",
                                "linalg.as_matrix"),
    "solvers+blocks": (PREDICT, "solvers.solve_prediction_inclusion", "prox.prox",
                       BLOCKVECTOR_INIT, "blocks.BlockVector.methods"),
    "problems.metrics": ("problems.gap_to_star", "problems.feasibility",
                         "problems.objective"),
    "framework": ("framework.certify", "framework.correct", "framework.run"),
}


def self_time_shares(full, empty) -> dict:
    """Share of the loop's self time (budget-B minus budget-0 run) per layer group.

    "other" is the self time of spans outside every group.
    """
    loop = {name: full.self_s[name] - empty.self_s[name]
            for name in full.self_s if name != OVERHEAD_SPAN}
    total = sum(loop.values())
    if total <= 0.0:
        return {}
    shares = {group: sum(loop.get(n, 0.0) for n in names) / total
              for group, names in LAYER_GROUPS.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares
