"""Timed and traced measurements of one workload, with output checks.

Everything here drives the library through its public entry points: the
``make_*`` generators, ``certify``, ``run`` and ``cli.main``. Each timed
operation is also checked; an operation fails if it raises, returns a trace
with ``failure`` set, writes a ``trace.csv`` that is not byte-identical to
the first run of the same configuration, or (for the reference runs)
deviates by more than 1e-10 relative from the stored reference columns.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import predcorr as pc
from predcorr import cli

import layers
from calibration import Kernel
from spec import MODES
from tracer import Tracer

clock = time.perf_counter

GENERATORS = {
    "two-block-l1": pc.make_two_block_l1,
    "saddle-quadratic": pc.make_saddle_quadratic,
    "multi-block-quadratic": pc.make_multiblock_quadratic,
}

REFERENCE_COLUMNS = ("gap_at_star", "feasibility", "pointwise_residual")
REFERENCE_RTOL = 1e-10
# Below this share of the column's largest magnitude an entry is compared
# against that floor instead of its own size, so values that cross zero do
# not demand digits the arithmetic never had.
REFERENCE_FLOOR = 1e-3
LYAPUNOV_ALLOWANCE = 1e-9
TOL_GAP_SHARE = 1e-3

# Shares of the library's time spent on each kind of timed step, and the
# fewest samples a step takes however slow the machine is. Budget-0 runs get
# a small share: only their median is used. A traced run spends ITER_SHARE
# of --seconds on iteration runs, half of it traced.
SETUP_SHARE, ZERO_SHARE, MODE_SHARE, CLI_SHARE = 0.1, 0.05, 0.3, 0.25
ITER_SHARE = ZERO_SHARE + 2 * MODE_SHARE
MIN_SAMPLES = 5
# Timed set-ups and CLI runs cycle through the instances of this many
# consecutive seeds, starting at --seed. Set-up cost depends on the instance
# (the power iteration for the spectral radius takes a seed-dependent number
# of steps: 31-72 ms on most saddle-quad seeds, 241 ms on seed 3), so a run
# that timed one instance would measure its seed more than the code. Set-up
# is a small share of a CLI run, whose output check needs a library run of
# each instance first, so the CLI cycles through fewer.
SETUP_INSTANCES = 32
CLI_INSTANCES = 16
TRACED_SETUPS = 3
TRACED_CLI_RUNS = 3


def build(workload, seed: int):
    return GENERATORS[workload.generator](seed, **workload.params)


def cli_argv(workload, seed: int, budget: int, outdir) -> list:
    argv = ["run", "--generator", workload.generator, "--seed", str(seed)]
    for key, value in workload.params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    return argv + ["--mode", "faster", "--budget", str(budget), "--out", str(outdir)]


# ---------------------------------------------------------------------------
# statistics

def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n <= 10:
        return None, None
    ordered = sorted(samples)
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def summary(samples, raw, unit: str) -> dict:
    """Median and tail of the scaled samples, with the median of the raw ones."""
    pct, value = tail(samples)
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "raw": statistics.median(raw), "tail_pct": pct, "tail": value}


# ---------------------------------------------------------------------------
# output checks

@dataclass
class Ops:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def attempt(self, label: str, fn):
        """Call fn(); a raise is a failed op and returns None."""
        try:
            return fn()
        except Exception as exc:  # any raise from the library is a failed op
            self.record(label, f"raised {type(exc).__name__}: {exc}")
            return None


def csv_bytes(trace, workdir: Path) -> bytes:
    path = workdir / "check.csv"
    cli.write_trace_csv(trace, path)
    return path.read_bytes()


def trace_problem(trace, budget: int):
    if trace.failure is not None:
        return f"trace failure: {trace.failure}"
    if len(trace.records) != budget:
        return f"{len(trace.records)} records for budget {budget}"
    return None


def reference_problem(trace, columns: dict):
    for name in REFERENCE_COLUMNS:
        ref = columns[name]
        got = trace.column(name)
        if len(got) < len(ref):
            return f"{name}: {len(got)} rows, reference has {len(ref)}"
        floor = REFERENCE_FLOOR * max((abs(r) for r in ref), default=0.0)
        for k, (g, r) in enumerate(zip(got, ref)):
            if not abs(g - r) <= REFERENCE_RTOL * max(abs(r), floor):
                return f"{name}[{k}] = {g!r}, reference {r!r}"
    return None


def lyapunov_path(trace) -> list:
    """The quantity the paper's argument needs to be nonincreasing.

    Baseline: the H-distance of the corrected state to the oracle point.
    Faster: gap/tau + H-distance/2 at the accelerated iterate.
    """
    if trace.mode == "faster":
        return [r.gap_at_star / r.tau + 0.5 * r.vdist_sq_h for r in trace.records]
    return [r.vdist_sq_h for r in trace.records]


def lyapunov_problem(trace):
    path = lyapunov_path(trace)
    if len(path) < 2:
        return None
    worst = max(b - a for a, b in zip(path, path[1:])) / (1.0 + abs(path[0]))
    if not worst <= LYAPUNOV_ALLOWANCE:
        return f"Lyapunov quantity rose by {worst:.3e} (allowance {LYAPUNOV_ALLOWANCE:g})"
    return None


def iters_to_tol(trace):
    """First k with gap <= 1e-3 * gap_0, or None within the budget."""
    gaps = trace.column("gap_at_star")
    if not gaps:
        return None
    return next((k for k, g in enumerate(gaps) if g <= TOL_GAP_SHARE * gaps[0]), None)


# ---------------------------------------------------------------------------
# shared steps

class Session:
    """One workload on one seed: the instance, its first traces and the ops."""

    def __init__(self, workload, seed: int, workdir: Path, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.ops = Ops()
        self.instance = None
        self.first_csv = {}

    def setup_once(self, seed: int | None = None):
        """Time one set-up of the instance of seed (default: the session's).

        The first instance built for the session's own seed is kept for the runs.
        """
        seed = self.seed if seed is None else seed
        start = clock()
        instance = build(self.workload, seed)
        cert = pc.certify(instance.spec.correction_spec())
        elapsed = clock() - start
        problem = None
        if not cert.satisfied:
            problem = "certificate not satisfied"
        elif instance.w_star is None:
            problem = "instance has no oracle point"
        self.ops.record("setup", problem)
        if self.instance is None and seed == self.seed:
            self.instance = instance
        return elapsed

    def first_runs(self):
        """Untimed runs of each mode that later runs must reproduce byte for byte.

        They are also checked for the monotone Lyapunov quantity.
        """
        budget = self.workload.iter_budget
        for mode in MODES:
            trace = self.ops.attempt(f"{mode} first run",
                                     lambda: pc.run(self.instance, mode, budget))
            if trace is None:
                raise RuntimeError(f"{mode} run of {self.workload.name} raised; "
                                   f"see {self.ops.failures[-1]}")
            self.ops.record(f"{mode} first run", trace_problem(trace, budget))
            self.ops.record(f"{mode} Lyapunov", lyapunov_problem(trace))
            self.first_csv[mode] = csv_bytes(trace, self.workdir)

    def check_reference(self):
        """Compare against stored columns: this seed if stored, else the first stored seed.

        It builds its own instance and is called before the session builds
        any, so the peak resident set does not depend on whether the seed
        is stored.
        """
        if self.reference is None:
            return
        seeds = self.reference["seeds"]
        key = str(self.seed) if str(self.seed) in seeds else min(seeds, key=int)
        budget = self.reference["budget"]
        instance = build(self.workload, int(key))
        for mode in MODES:
            label = f"{mode} reference seed {key}"
            trace = self.ops.attempt(label, lambda: pc.run(instance, mode, budget))
            if trace is not None:
                self.ops.record(label, trace_problem(trace, budget)
                                or reference_problem(trace, seeds[key][mode]))

    def check_run(self, label: str, trace, mode: str, budget: int):
        """Record one run op: a sound trace whose CSV matches the first run's."""
        problem = trace_problem(trace, budget)
        if problem is None and budget:
            if csv_bytes(trace, self.workdir) != self.first_csv[mode]:
                problem = "trace.csv differs from the first run"
        self.ops.record(label, problem)

    def timed_run(self, mode: str, budget: int):
        """Wall time of one run call; the trace is checked after the clock stops."""
        start = clock()
        trace = self.ops.attempt(f"{mode} run", lambda: pc.run(self.instance, mode, budget))
        elapsed = clock() - start
        if trace is not None:
            self.check_run(f"{mode} run", trace, mode, budget)
        return elapsed

    def library_csv(self, seed: int) -> bytes:
        """The trace.csv a CLI run of the instance of seed must write."""
        instance = self.instance if seed == self.seed else build(self.workload, seed)
        trace = pc.run(instance, "faster", self.workload.cli_budget)
        return csv_bytes(trace, self.workdir)

    def cli_run(self, seed: int, expected_csv: bytes):
        """Wall time of one in-process ``predcorr run``, then its files are checked."""
        outdir = self.workdir / "cli"
        for name in ("trace.csv", "summary.json"):
            (outdir / name).unlink(missing_ok=True)
        argv = cli_argv(self.workload, seed, self.workload.cli_budget, outdir)
        sink = io.StringIO()

        def main():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        start = clock()
        code = self.ops.attempt("cli run", main)
        elapsed = clock() - start
        if code is not None:
            self.ops.record("cli run", self._cli_problem(code, outdir, expected_csv, sink))
        return elapsed

    def _cli_problem(self, code, outdir, expected_csv, sink):
        if code != 0:
            return f"exit code {code}: {sink.getvalue().strip()}"
        try:
            written = (outdir / "trace.csv").read_bytes()
            summary_doc = json.loads((outdir / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return f"output files unreadable: {exc}"
        if written != expected_csv:
            return "trace.csv differs from the library trace"
        if not summary_doc.get("certificate", {}).get("satisfied"):
            return "summary.json does not record a satisfied certificate"
        return None


def interleave(seconds: float, steps: dict, kernel=None, reference_s: float = 1.0):
    """Run steps in turns until the time is up and each ran MIN_SAMPLES times.

    steps maps a name to (share, step); a step returns {sample name: seconds}.
    Each turn runs the step whose time so far is smallest relative to its
    share, so every step samples the whole window.

    With a kernel, the kernel is timed before every turn and once after the
    last, and each sample of a turn is scaled by reference_s over the mean of
    the four kernel times nearest it, two on each side (see calibration.py).
    The machine's speed drifts over seconds, so a sample is compared with the
    speed of its own moment rather than with the run as a whole; the second
    time on each side evens out the kernel's own jitter.

    Returns (scaled, raw, scales): scaled and raw map each sample name to its
    list of times, and scales holds the factor of every turn.
    """
    spent = dict.fromkeys(steps, 0.0)
    count = dict.fromkeys(steps, 0)
    turns, kernel_times = [], []

    def time_kernel():
        if kernel is not None:
            start = clock()
            kernel()
            kernel_times.append(clock() - start)

    deadline = clock() + seconds
    time_kernel()
    while min(count.values()) < MIN_SAMPLES or clock() < deadline:
        name = min(steps, key=lambda k: spent[k] / steps[k][0])
        start = clock()
        turns.append(steps[name][1]())
        spent[name] += clock() - start
        count[name] += 1
        time_kernel()

    scaled, raw, scales = {}, {}, []
    for i, samples in enumerate(turns):
        near = kernel_times[max(0, i - 1):i + 3]
        scale = reference_s * len(near) / sum(near) if kernel is not None else 1.0
        scales.append(scale)
        for key, t in samples.items():
            scaled.setdefault(key, []).append(t * scale)
            raw.setdefault(key, []).append(t)
    return scaled, raw, scales


def run_steps(session) -> dict:
    """Interleaving steps that time budget-0 runs and budget-B runs of each mode.

    Each step is one run, so the kernel is timed next to every run. The
    budget-0 runs alternate between the modes.
    """
    budget = session.workload.iter_budget
    zero_modes = itertools.cycle(MODES)
    steps = {"zero": (ZERO_SHARE, lambda: {"zero": session.timed_run(next(zero_modes), 0)})}
    for mode in MODES:
        steps[mode] = (MODE_SHARE, lambda mode=mode: {mode: session.timed_run(mode, budget)})
    return steps


def iter_ms(samples: dict, mode: str, budget: int) -> list:
    """(budget-B time - median budget-0 time) / B for each budget-B run, in ms."""
    base = statistics.median(samples["zero"])
    return [(t - base) / budget * 1e3 for t in samples[mode]]


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)

def measure_end_to_end(session, seconds: float):
    """Every end-to-end metric, as summary() dicts keyed by metric name.

    Times are scaled turn by turn by the workload's calibration kernel, so
    they read as times on a machine where the kernel takes reference_ms
    (see interleave and calibration.py). Returns (metrics, median scale).
    """
    workload = session.workload
    session.check_reference()
    session.setup_once()
    session.first_runs()
    setup_seeds = itertools.cycle(range(session.seed, session.seed + SETUP_INSTANCES))
    cli_instances = range(session.seed, session.seed + CLI_INSTANCES)
    expected = {seed: session.library_csv(seed) for seed in cli_instances}
    cli_seeds = itertools.cycle(cli_instances)

    def cli_step():
        seed = next(cli_seeds)
        return {"cli": session.cli_run(seed, expected[seed])}

    kernel = Kernel(workload.calibration)
    kernel()
    gc.collect()
    scaled, raw, scales = interleave(seconds, {
        "setup": (SETUP_SHARE, lambda: {"setup": session.setup_once(next(setup_seeds))}),
        **run_steps(session),
        "cli": (CLI_SHARE, cli_step),
    }, kernel, workload.reference_ms / 1e3)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": summary(scaled["setup"], raw["setup"], "s")}
    budget = workload.iter_budget
    for mode in MODES:
        metrics[f"{mode}.iter_ms"] = summary(iter_ms(scaled, mode, budget),
                                            iter_ms(raw, mode, budget), "ms")
    metrics["cli_run_s"] = summary(scaled["cli"], raw["cli"], "s")
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    return metrics, statistics.median(scales)


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)

def _median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure_layers(session, seconds: float):
    """Per-layer metrics from a traced run, plus the self-time share per layer.

    Returns (metrics {name: value}, shares {mode: {group: share}}).
    """
    workload = session.workload
    budget = workload.iter_budget
    tracer = Tracer(layers.targets())
    session.check_reference()

    setups = []
    with tracer:
        for _ in range(TRACED_SETUPS):
            tracer.reset()
            with tracer.span("problems.generate"):
                instance = build(workload, session.seed)
            with tracer.span("framework.certify"):
                cert = pc.certify(instance.spec.correction_spec())
            session.ops.record("traced setup",
                               None if cert.satisfied else "certificate not satisfied")
            setups.append(layers.setup_metrics(tracer.stats()))
    session.instance = instance
    session.first_runs()

    traced = {mode: [] for mode in MODES}
    traced_ms = {mode: [] for mode in MODES}
    shares = {mode: [] for mode in MODES}
    failures = dict.fromkeys(MODES, 0)

    def traced_run(mode, run_budget):
        """One traced run call: (wall time, span stats)."""
        tracer.reset()
        start = clock()
        with tracer.span("framework.run"):
            trace = session.ops.attempt(f"traced {mode} run",
                                        lambda: pc.run(session.instance, mode, run_budget))
        elapsed = clock() - start
        stats = tracer.stats()
        if trace is None or trace.failure is not None:
            failures[mode] += 1
        if trace is not None:
            session.check_run(f"traced {mode} run", trace, mode, run_budget)
        return elapsed, stats

    def traced_round():
        order = MODES if len(traced_ms[MODES[0]]) % 2 == 0 else MODES[::-1]
        with tracer:
            for mode in order:
                (t0, empty), (t1, full) = traced_run(mode, 0), traced_run(mode, budget)
                traced[mode].append(layers.iteration_metrics(full, empty, budget))
                traced_ms[mode].append((t1 - t0) / budget * 1e3)
                shares[mode].append(layers.self_time_shares(full, empty))
        return {}

    gc.collect()
    untraced, _, _ = interleave(ITER_SHARE * seconds,
                                {**run_steps(session), "traced": (ITER_SHARE, traced_round)})

    metrics = {}
    for mode in MODES:
        per_iter = _median_dicts(traced[mode])
        per_iter["trace.overhead_pct"] = (statistics.median(traced_ms[mode])
                                          / statistics.median(iter_ms(untraced, mode, budget))
                                          - 1.0) * 100.0
        per_iter["framework.run.failures"] = failures[mode]
        per_iter["framework.run.alloc_peak_mb"] = _alloc_peak_mb(session, mode, budget)
        metrics.update({f"{mode}.{k}": v for k, v in per_iter.items()})
        shares[mode] = _median_dicts(shares[mode])

    for mode in MODES:
        label = f"{mode} iters_to_tol run"
        trace = session.ops.attempt(
            label, lambda: pc.run(session.instance, mode, workload.tol_budget))
        if trace is None:
            k = None
        else:
            session.ops.record(label, trace_problem(trace, workload.tol_budget)
                               or lyapunov_problem(trace))
            k = iters_to_tol(trace)
        # A run that never reaches the tolerance reads as the cap.
        metrics[f"solvers.iters_to_tol.{mode}"] = workload.tol_budget if k is None else k

    expected = session.library_csv(session.seed)
    cli_runs = []
    with tracer:
        for _ in range(TRACED_CLI_RUNS):
            tracer.reset()
            session.cli_run(session.seed, expected)
            cli_runs.append(layers.cli_metrics(tracer.stats()))
    metrics.update(_median_dicts(setups))
    metrics.update(_median_dicts(cli_runs))
    return metrics, shares


def _alloc_peak_mb(session, mode: str, budget: int) -> float:
    """Peak Python-tracked allocation (numpy included) during one untraced run."""
    gc.collect()
    tracemalloc.start()
    try:
        session.ops.attempt(f"{mode} alloc run",
                            lambda: pc.run(session.instance, mode, budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20
