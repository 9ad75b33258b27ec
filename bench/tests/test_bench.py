"""Tests of the benchmark harness itself, at tiny budgets.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import predcorr as pc  # noqa: E402
from predcorr import framework, linalg, solvers  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
from spec import END_TO_END, WORKLOADS, benchmark_json, per_layer_metrics  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def tiny(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


def session(workload, tmp_path, seed=0):
    return harness.Session(workload, seed, tmp_path,
                           bench_run.load_reference(workload.name))


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == benchmark_json()
    assert sorted(doc) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]


def test_end_to_end_emits_every_metric_with_unit(tmp_path):
    workload = tiny("multiblock-small", iter_budget=10, cli_budget=3)
    s = session(workload, tmp_path)
    metrics, scale = harness.measure_end_to_end(s, seconds=0.01)
    assert scale > 0
    assert all(metrics[name]["raw"] > 0 for name in ("setup_s", "cli_run_s"))
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {name: unit for name, unit, _, _ in END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())
    assert s.ops.failures == []
    assert s.ops.attempted >= 4 * harness.MIN_SAMPLES


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    workload = tiny("multiblock-small", iter_budget=3, cli_budget=3, tol_budget=5)
    s = session(workload, tmp_path)
    values, shares = harness.measure_layers(s, seconds=0.01)
    assert set(values) == {name for name, _, _ in per_layer_metrics()}
    assert s.ops.failures == []
    assert values["baseline.solvers.solve_prediction_inclusion.calls_per_iter"] == 8
    assert set(shares) == {"baseline", "faster"}
    assert set(shares["faster"]) == set(layers.LAYER_GROUPS) | {"other"}


def test_layer_groups_cover_the_loop():
    instance = harness.build(WORKLOADS["consensus-l1"], 0)
    tracer = Tracer(layers.targets())
    stats = []
    with tracer:
        for budget in (0, 3):
            tracer.reset()
            with tracer.span("framework.run"):
                pc.run(instance, "faster", budget)
            stats.append(tracer.stats())
    shares = layers.self_time_shares(stats[1], stats[0])
    assert sum(shares.values()) == pytest.approx(1.0)
    assert abs(shares["other"]) < 0.02


def test_distinct_ratio_on_saddle_quad(tmp_path):
    budget = 4
    workload = tiny("saddle-quad", iter_budget=budget, cli_budget=3, tol_budget=5)
    values, _ = harness.measure_layers(session(workload, tmp_path), seconds=0.01)
    # two subproblem systems, rebuilt unchanged every baseline iteration
    assert values["baseline.linalg.cholesky_pd_check.distinct_ratio"] == pytest.approx(1 / budget)
    assert values["faster.linalg.cholesky_pd_check.distinct_ratio"] == 1.0
    assert values["baseline.linalg.cholesky_pd_check.calls_per_iter"] == 2


def test_perturbed_trace_fails_reference_check():
    workload = WORKLOADS["saddle-quad"]
    ref = bench_run.load_reference(workload.name)
    instance = harness.build(workload, 0)
    trace = pc.run(instance, "faster", ref["budget"])
    columns = ref["seeds"]["0"]["faster"]
    assert harness.reference_problem(trace, columns) is None

    rec = trace.records[5]
    trace.records[5] = dataclasses.replace(rec, gap_at_star=rec.gap_at_star * (1 + 1e-9))
    assert "gap_at_star[5]" in harness.reference_problem(trace, columns)
    trace.records[5] = dataclasses.replace(rec, gap_at_star=rec.gap_at_star * (1 + 1e-12))
    assert harness.reference_problem(trace, columns) is None


def test_perturbed_csv_counts_as_failed_op(tmp_path):
    s = session(tiny("multiblock-small", iter_budget=3), tmp_path)
    s.setup_once()
    s.first_runs()
    assert s.ops.failures == []
    s.first_csv["faster"] = s.first_csv["faster"].replace(b"\n1,", b"\n1,9", 1)
    s.timed_run("baseline", 3)
    s.timed_run("faster", 3)
    assert len(s.ops.failures) == 1
    assert "faster run: trace.csv differs" in s.ops.failures[0]


def test_failed_trace_counts_as_failed_op(tmp_path, monkeypatch):
    s = session(tiny("multiblock-small", iter_budget=3), tmp_path)
    s.setup_once()
    s.first_runs()

    def broken_run(instance, mode, budget, **kw):
        trace = framework.run(instance, mode, budget, **kw)
        trace.failure = "subproblem failed"
        return trace

    monkeypatch.setattr(pc, "run", broken_run)
    s.timed_run("baseline", 3)
    assert s.ops.failures == ["baseline run: trace failure: subproblem failed"]


def test_lyapunov_check_flags_an_increase():
    instance = harness.build(WORKLOADS["multiblock-small"], 0)
    trace = pc.run(instance, "baseline", 10)
    assert harness.lyapunov_problem(trace) is None
    rec = trace.records[4]
    trace.records[4] = dataclasses.replace(rec, vdist_sq_h=rec.vdist_sq_h * 10)
    assert "Lyapunov" in harness.lyapunov_problem(trace)


def test_tracer_tolerates_missing_names_and_restores_patches():
    originals = {
        (linalg, "cholesky_pd_check"): linalg.cholesky_pd_check,
        (solvers, "solve_spd"): solvers.solve_spd,
    }
    predict = vars(solvers.SaddleSpec)["predict_baseline"]
    targets = layers.targets() + (
        Target("gone", (("predcorr.framework", "StoppingRuleRemoved"),
                        ("predcorr.solvers", "SaddleSpec.predict_removed"),
                        ("predcorr.no_such_module", "f"))),
    )
    tracer = Tracer(targets)
    instance = harness.build(WORKLOADS["saddle-quad"], 0)
    with pytest.raises(RuntimeError):
        with tracer:
            assert solvers.solve_spd is not originals[(solvers, "solve_spd")]
            pc.run(instance, "baseline", 2)
            raise RuntimeError("interrupted traced block")
    stats = tracer.stats()
    assert stats.calls["gone"] == 0
    assert stats.calls["solvers.predict"] == 2
    assert len(tracer.missing) == 3
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    assert vars(solvers.SaddleSpec)["predict_baseline"] is predict


def test_tracer_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):        # 0 .. 7
        with tracer.span("inner"):    # 1 .. 4
            with tracer.span("leaf"):  # 2 .. 3
                pass
        with tracer.span("inner"):    # 5 .. 6
            pass
    stats = tracer.stats()
    assert stats.total_s == {"outer": 7, "inner": 4, "leaf": 1}
    assert stats.self_s == {"outer": 3, "inner": 3, "leaf": 1}
    assert stats.calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_calibration_kernels_run():
    from calibration import Kernel
    for workload in WORKLOADS.values():
        assert Kernel(workload.calibration)() != 0.0
    with pytest.raises(ValueError):
        Kernel(("dense", "gpu"))


def test_interleave_scales_each_turn_by_the_kernel_around_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(harness, "clock", lambda: now[0])
    kernel_costs = iter([1.0, 3.0, 1.0, 1.0, 0.5, 0.5])

    def kernel():
        now[0] += next(kernel_costs)

    def step():
        now[0] += 2.0
        return {"step": 2.0}

    scaled, raw, scales = harness.interleave(0.0, {"step": (1.0, step)}, kernel, 2.0)
    assert raw == {"step": [2.0] * harness.MIN_SAMPLES}
    # Turn i is scaled by 2.0 over the mean of kernel times i-1 .. i+2.
    assert scales == pytest.approx([6 / 5, 4 / 3, 16 / 11, 8 / 3, 3.0])
    assert scaled["step"] == pytest.approx([2 * x for x in scales])


def test_tail_percentile_leaves_ten_samples_above():
    samples = list(range(100))
    assert harness.tail(samples) == (90, 89)
    assert harness.tail(list(range(10))) == (None, None)


def run_script(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_script_prints_result_line():
    proc = run_script(ROOT, "--workload", "multiblock-small", "--seed", "1",
                      "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(name for name, *_ in END_TO_END)


def test_run_script_fails_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_script(tmp_path, "--workload", "saddle-quad", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
