"""Command-line harness: certify schemes, run them, and fit empirical rates.

Subcommands
-----------
certify   build an instance, print the certificate pivots, exit 0/1/2
run       execute one (family, mode) run; emit trace.csv + summary.json
rates     fit a log-log slope to one trace column over an iteration window
compare   run baseline and faster on the same instance side by side

Instances come either from a named generator (--generator plus --seed and
--param key=value) or from a JSON document (--instance). A --config file
may carry the same fields; explicit flags win. All trace floats are written
with repr so reruns of the same config are byte-identical; the only
run-dependent field is runtime_seconds in the JSON summary.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .framework import (SingularCorrectionError, UncertifiedSpecError, certify, run)
from .linalg import AsymmetryError
from .problems import (instance_from_document, make_matrix_game,
                       make_multiblock_quadratic, make_saddle_quadratic,
                       make_two_block_l1, make_two_block_quadratic)
from .schedule import DEFAULT_TAU_INIT, _check_unit_interval
from .trace import CSV_COLUMNS, IterationTrace

RATE_FLOOR = 1e-15  # trace values at or below this are noise, not rate signal

GENERATORS = {
    "two-block-quadratic": make_two_block_quadratic,
    "two-block-l1": make_two_block_l1,
    "multi-block-quadratic": make_multiblock_quadratic,
    "saddle-quadratic": make_saddle_quadratic,
    "matrix-game": make_matrix_game,  # deterministic in A; takes no seed
}


# JSON type of each --config field; null is also taken where the default is None
CONFIG_TYPES = {"generator": str, "params": dict, "instance_path": str, "seed": int,
                "mode": str, "budget": int, "tau_init": float, "out": str,
                "override_uncertified": bool}


@dataclass
class RunConfig:
    """Everything one run needs; mirrors the --config JSON field names."""

    generator: str | None = None
    params: dict = field(default_factory=dict)
    instance_path: str | None = None
    seed: int | None = None
    mode: str = "faster"
    budget: int = 1000
    tau_init: float = DEFAULT_TAU_INIT
    out: str | None = None
    override_uncertified: bool = False

    def validate(self):
        if (self.generator is None) == (self.instance_path is None):
            raise ValueError("give exactly one instance source "
                             "(--generator or --instance)")
        if self.generator is not None and self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}; "
                             f"choose from {sorted(GENERATORS)}")
        if self.mode not in ("baseline", "faster"):
            raise ValueError(f"mode must be 'baseline' or 'faster', got {self.mode!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        _check_unit_interval(self.tau_init, "tau_init")


@dataclass(frozen=True)
class RateReport:
    """Least-squares fit of log(metric) against log(k) over [k_lo, k_hi]."""

    metric: str
    k_lo: int
    k_hi: int
    points: int
    slope: float
    intercept: float
    fit_residual: float

    def __str__(self):
        return (f"metric={self.metric} window=[{self.k_lo},{self.k_hi}] "
                f"points={self.points} slope={self.slope:.4f} "
                f"intercept={self.intercept:.4f} fit_residual={self.fit_residual:.3e}")


def fit_rate_report(ks, values, metric: str, k_lo: int, k_hi: int) -> RateReport:
    """Fit the empirical decay exponent of one metric column.

    The first 10 iterations are transient and never enter a fit, so k_lo
    must be at least 10; values at the numeric floor are excluded since
    they measure roundoff, not rate. Needs 20 usable points.
    """
    k_lo, k_hi = int(k_lo), int(k_hi)
    if k_lo < 10:
        raise ValueError(f"window must start at k >= 10, got {k_lo}")
    if k_hi <= k_lo:
        raise ValueError(f"empty window [{k_lo}, {k_hi}]")
    pairs = [(float(k), float(v)) for k, v in zip(ks, values)
             if k_lo <= k <= k_hi and v > RATE_FLOOR]
    if len(pairs) < 20:
        raise ValueError(f"only {len(pairs)} usable points in [{k_lo}, {k_hi}]; "
                         "increase the budget or widen the window")
    lk = np.log([p[0] for p in pairs])
    lv = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(lk, lv, 1)
    resid = float(np.sqrt(np.mean((slope * lk + intercept - lv) ** 2)))
    return RateReport(metric, k_lo, k_hi, len(pairs), float(slope),
                      float(intercept), resid)


def build_instance(cfg: RunConfig):
    cfg.validate()
    if cfg.instance_path is not None:
        with open(cfg.instance_path) as fh:
            return instance_from_document(json.load(fh))
    make = GENERATORS[cfg.generator]
    signature = inspect.signature(make)
    seed = 0 if cfg.seed is None else int(cfg.seed)
    args = (seed,) if "seed" in signature.parameters else ()
    try:
        signature.bind(*args, **cfg.params)
        return make(*args, **cfg.params)
    except (TypeError, OverflowError) as exc:  # a bad name, type or integer size
        raise ValueError(f"generator {cfg.generator!r}: {exc}") from None


def write_trace_csv(trace: IterationTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in trace.records:
            k, *vals = rec.csv_fields()
            fh.write(",".join([str(int(k))] + [repr(float(v)) for v in vals]) + "\n")


def summarize_trace(trace: IterationTrace, runtime: float) -> dict:
    last = trace.records[-1] if trace.records else None
    doc = {
        "family": trace.family,
        "mode": trace.mode,
        "budget": trace.budget,
        "tau_init": trace.tau_init,
        "measured_at": ("ergodic_average" if trace.mode == "baseline"
                        else "accelerated_iterate"),
        "certificate": {
            "h_min_pivot": trace.certificate.h_min_pivot,
            "g_min_pivot": trace.certificate.g_min_pivot,
            "satisfied": trace.certificate.satisfied,
        },
        "final": {
            "gap": last.gap_at_star if last else None,
            "feasibility": last.feasibility if last else None,
            "residual": last.pointwise_residual if last else None,
        },
        "runtime_seconds": runtime,
    }
    if trace.uncertified:
        doc["uncertified"] = True
    if trace.failure is not None:
        doc["failure"] = trace.failure
    return doc


def cmd_certify(cfg: RunConfig) -> int:
    instance = build_instance(cfg)
    try:
        cert = certify(instance.spec.correction_spec())
    except (SingularCorrectionError, AsymmetryError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 2
    print(f"family={instance.family} "
          f"h_min_pivot={cert.h_min_pivot!r} g_min_pivot={cert.g_min_pivot!r} "
          f"satisfied={'yes' if cert.satisfied else 'no'}")
    return 0 if cert.satisfied else 1


def _run_and_write(instance, cfg: RunConfig, mode: str, csv_path: Path):
    """Run one mode, write its CSV, return (trace, summary); a raising run writes none."""
    start = time.perf_counter()
    trace = run(instance, mode, cfg.budget, tau_init=cfg.tau_init,
                override_uncertified=cfg.override_uncertified)
    runtime = time.perf_counter() - start
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, csv_path)
    return trace, summarize_trace(trace, runtime)


def _write_json(doc: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_run(cfg: RunConfig) -> int:
    instance = build_instance(cfg)
    outdir = Path(cfg.out or ".")
    trace, summary = _run_and_write(instance, cfg, cfg.mode, outdir / "trace.csv")
    _write_json(summary, outdir / "summary.json")
    print(f"wrote {outdir / 'trace.csv'} ({len(trace)} rows) and "
          f"{outdir / 'summary.json'}")
    return 1 if trace.failure is not None else 0


def cmd_compare(cfg: RunConfig) -> int:
    instance = build_instance(cfg)
    outdir = Path(cfg.out or ".")
    doc = {"family": instance.family, "budget": cfg.budget, "tau_init": cfg.tau_init}
    status = 0
    for mode in ("baseline", "faster"):
        trace, doc[mode] = _run_and_write(instance, cfg, mode, outdir / f"{mode}_trace.csv")
        if trace.failure is not None:
            status = 1
    _write_json(doc, outdir / "compare.json")
    print(f"wrote {outdir / 'baseline_trace.csv'}, {outdir / 'faster_trace.csv'} "
          f"and {outdir / 'compare.json'}")
    return status


def cmd_rates(trace_path: str, metric: str, k_lo: int, k_hi: int) -> int:
    ks, vals = [], []
    with open(trace_path) as fh:
        header = fh.readline().strip().split(",")
        if metric not in header:
            print(f"trace has no column {metric!r}; columns: {header}",
                  file=sys.stderr)
            return 2
        pos = header.index(metric)
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(header):
                print(f"{trace_path} line {lineno}: expected {len(header)} cells, "
                      f"got {len(cells)}", file=sys.stderr)
                return 2
            ks.append(int(cells[0]))
            vals.append(float(cells[pos]))
    try:
        report = fit_rate_report(ks, vals, metric, k_lo, k_hi)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report)
    return 0


def _parse_param(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _add_source_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with RunConfig fields")
    p.add_argument("--generator", help=f"one of {sorted(GENERATORS)}")
    p.add_argument("--instance", dest="instance_path",
                   help="JSON instance document to load")
    p.add_argument("--param", action="append", type=_parse_param, default=[],
                   metavar="KEY=VALUE", help="generator parameter (repeatable)")
    p.add_argument("--seed", type=int)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget", type=int)
    p.add_argument("--tau-init", type=float, dest="tau_init")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--override-uncertified", action="store_true", default=None,
                   dest="override_uncertified")


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config {args.config} must hold a JSON object, "
                             f"got {type(doc).__name__}")
        for key, value in doc.items():
            if key not in CONFIG_TYPES:
                raise ValueError(f"unknown config field {key!r}")
            want = CONFIG_TYPES[key]
            if type(value) is not want and not (value is None and getattr(cfg, key) is None):
                raise ValueError(f"config field {key!r} must be {want.__name__}, "
                                 f"got {type(value).__name__}")
            setattr(cfg, key, value)
    for key in CONFIG_TYPES.keys() - {"params"}:  # params come from --param below
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    for key, value in getattr(args, "param", []):
        cfg.params[key] = value
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="predcorr",
        description="prediction-correction solver bench: certify, run, rates, compare")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="check the convergence condition")
    _add_source_flags(p_cert)

    p_run = sub.add_parser("run", help="run one solver and write its trace")
    _add_source_flags(p_run)
    p_run.add_argument("--mode", choices=("baseline", "faster"))
    _add_run_flags(p_run)

    p_rates = sub.add_parser("rates", help="fit a decay slope to a trace column")
    p_rates.add_argument("--trace", required=True)
    p_rates.add_argument("--metric", default="pointwise_residual",
                         choices=[c for c in CSV_COLUMNS if c not in ("k", "tau")])
    p_rates.add_argument("--k-lo", type=int, default=10, dest="k_lo")
    p_rates.add_argument("--k-hi", type=int, required=True, dest="k_hi")

    p_cmp = sub.add_parser("compare", help="baseline vs faster on one instance")
    _add_source_flags(p_cmp)
    _add_run_flags(p_cmp)

    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            return cmd_certify(_config_from_args(args))
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "compare":
            return cmd_compare(_config_from_args(args))
        return cmd_rates(args.trace, args.metric, args.k_lo, args.k_hi)
    except UncertifiedSpecError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
