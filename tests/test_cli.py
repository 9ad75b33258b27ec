import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import predcorr
from predcorr import instance_to_document, make_two_block_l1
from predcorr.cli import RATE_FLOOR, fit_rate_report, main


def call(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# certify


def test_certify_pass(capsys):
    code, out, _ = call(capsys, "certify", "--generator", "two-block-l1",
                        "--param", "n=2", "--param", "mu=0.5")
    assert code == 0
    assert "satisfied=yes" in out
    assert "h_min_pivot=" in out and "g_min_pivot=" in out


def test_certify_fail(capsys):
    code, out, _ = call(capsys, "certify", "--generator", "two-block-l1",
                        "--param", "n=2", "--param", "mu=0.5",
                        "--param", "r=-0.9", "--param", "s=0.5")
    assert code == 1
    assert "satisfied=no" in out


def test_certify_singular_correction(capsys):
    # r + s = 0 makes the correction matrix singular
    code, _, err = call(capsys, "certify", "--generator", "two-block-l1",
                        "--param", "n=2", "--param", "mu=0.5",
                        "--param", "r=-0.5", "--param", "s=0.5")
    assert code == 2
    assert "construction error" in err


def test_certify_bad_generator(capsys):
    code, _, err = call(capsys, "certify", "--generator", "nope")
    assert code == 2
    assert "unknown generator" in err


@pytest.mark.parametrize("command", ["certify", "run"])
@pytest.mark.parametrize("params, named", [
    (("bogus=1",), "'n'"),
    (("n=3", "mu=0.5", "bogus=1"), "'bogus'"),
    (("n=3",), "'mu'"),
], ids=["only-unknown", "unknown", "missing"])
def test_bad_generator_params(tmp_path, capsys, command, params, named):
    # an unknown or missing generator parameter means no spec can be built
    argv = [command, "--generator", "two-block-l1"]
    for p in params:
        argv += ["--param", p]
    if command == "run":
        argv += ["--out", str(tmp_path)]
    code, out, err = call(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "'two-block-l1'" in err and named in err
    assert not list(tmp_path.iterdir())


L1 = {"generator": "two-block-l1", "params": {"n": 2, "mu": 0.5}}
L1_ARGS = ("--generator", "two-block-l1", "--param", "n=3", "--param", "mu=0.5")
SADDLE = ("--generator", "saddle-quadratic", "--param", "n=3", "--param", "m=2")
GAME = ("--generator", "matrix-game", "--param", "A=[[1,2],[3,4]]")


def nan_weight_document():
    doc = instance_to_document(make_two_block_l1(0, 4, 0.5))
    doc["objective"][0]["weight"] = float("nan")  # json writes the NaN literal
    doc["w_star"] = None
    return doc


@pytest.mark.parametrize("source, named", [
    (("--generator", "two-block-l1", "--param", "n=abc", "--param", "mu=0.5"),
     "'two-block-l1'"),
    (("--generator", "matrix-game", "--param", "A=[[]]"), "(1, 0)"),
    (("--instance", {"family": "saddle"}), "'objective'"),
    (("--instance", [1, 2]), "JSON object"),
    (("--instance", nan_weight_document()), "weight"),
    (("--config", [1, 2]), "JSON object"),
    (("--config", dict(L1, budget="abc")), "'budget'"),
    (("--config", dict(L1, budget=2.7)), "'budget'"),
    (("--config", dict(L1, seed=True)), "'seed'"),
    (("--config", dict(L1, tau_init="0.5")), "'tau_init'"),
    (("--config", dict(L1, params="abc"), "--param", "n=2"), "'params'"),
    (("--config", dict(L1, out=5)), "'out'"),
    (("--config", dict(L1, override_uncertified="no"), "--param", "r=1.5"),
     "'override_uncertified'"),
    (SADDLE + ("--param", "alpha=1e200"), "r must be finite"),
    (SADDLE + ("--param", "alpha=-1e200"), "r must be finite"),
    (GAME + ("--param", "alpha=1e200"), "r must be finite"),
    (("--generator", "matrix-game", "--param", "A=[[1e308,-1e308],[1,2]]"),
     "r must be finite"),
    (L1_ARGS + ("--param", "beta=Infinity"), "beta must be finite"),
    (L1_ARGS + ("--param", "r=Infinity"), "r must be finite"),
    (L1_ARGS + ("--param", "beta=1" + "0" * 400), "too large"),
    (SADDLE + ("--param", "r=Infinity", "--param", "s=1"), "r must be finite"),
    (("--generator", "multi-block-quadratic", "--param", "m=2", "--param", "n_i=2.5",
      "--param", "l=3"), "n_i=2.5"),
], ids=["wrong-type-param", "empty-game", "document-field", "document-list",
        "document-nan-weight", "config-list", "config-budget-str",
        "config-budget-float", "config-seed-bool", "config-tau-str",
        "config-params-str", "config-out-int", "config-override-str",
        "saddle-alpha-huge", "saddle-alpha-huge-negative", "game-alpha-huge",
        "game-default-step-overflow", "l1-beta-inf", "l1-r-inf", "l1-beta-huge-int",
        "saddle-r-inf",
        "multiblock-fractional-dim"])
def test_malformed_input_exits_2(tmp_path, capsys, source, named):
    # outside input that cannot make an instance ends with one stderr line
    # naming the problem (a numpy RuntimeWarning on the way fails the suite)
    flag, value, *rest = source
    if not isinstance(value, str):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(value))
        value = str(path)
    outdir = tmp_path / "out"
    code, out, err = call(capsys, "run", flag, value, *rest, "--out", str(outdir))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("block", [0, 1], ids=["A1", "A2"])
def test_certify_huge_coupling_matrix_exits_2(tmp_path, capsys, block):
    # the Gram product overflows: one line naming the matrix, no numpy warning
    doc = instance_to_document(make_two_block_l1(0, 4, 0.5))
    doc["A"][block] = (1e200 * np.array(doc["A"][block])).tolist()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = call(capsys, "certify", "--instance", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"A{block + 1}'A{block + 1}" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma (pulled in by numpy's set routines) adds about 1.2 MB of RSS;
    # neither a CLI command nor a library certify of many components loads it
    script = """
import sys
from predcorr import certify, make_multiblock_quadratic, make_two_block_l1
from predcorr.cli import main
for i, argv in enumerate(sys.argv[1:]):
    command, *rest = argv.split()
    if command != "certify":
        rest += ["--budget", "3", "--out", f"o{i}"]
    assert main([command, *rest]) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
for inst in (make_two_block_l1(0, 50, 0.5), make_multiblock_quadratic(0, 4, 3, 5)):
    assert certify(inst.spec.correction_spec()).satisfied
assert "numpy.ma" not in sys.modules, "library certify"
"""
    generators = ["--generator two-block-l1 --param n=3 --param mu=0.5",
                  "--generator two-block-quadratic --param n1=3 --param n2=2 --param l=4",
                  "--generator multi-block-quadratic --param m=3 --param n_i=2 --param l=3",
                  "--generator saddle-quadratic --param n=3 --param m=2",
                  "--generator matrix-game --param A=[[1,2],[3,4]]"]
    runs = [f"{command} {g}" for command in ("run", "certify") for g in generators]
    runs += [f"compare {g}" for g in generators[:3]]
    # the child imports the same predcorr as this process, installed or not
    src = str(Path(predcorr.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, *runs], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# run


def run_args(outdir, *extra):
    return ("run", "--generator", "two-block-l1", "--param", "n=2",
            "--param", "mu=0.5", "--seed", "3", "--budget", "40",
            "--out", str(outdir)) + extra


def test_run_outputs_and_rerun_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert call(capsys, *run_args(out1))[0] == 0
    assert call(capsys, *run_args(out2))[0] == 0

    trace = (out1 / "trace.csv").read_text()
    lines = trace.strip().splitlines()
    assert lines[0] == "k,tau,gap_at_star,feasibility,pointwise_residual,objective"
    assert len(lines) == 41
    assert trace == (out2 / "trace.csv").read_text()  # byte-identical rerun

    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert isinstance(s1.pop("runtime_seconds"), float)
    assert isinstance(s2.pop("runtime_seconds"), float)
    assert s1 == s2  # runtime is the only run-dependent field

    assert s1["family"] == "two-block"
    assert s1["mode"] == "faster"
    assert s1["budget"] == 40
    assert s1["certificate"]["satisfied"] is True
    assert s1["certificate"]["h_min_pivot"] > 0
    for key in ("gap", "feasibility", "residual"):
        assert isinstance(s1["final"][key], float)


def test_run_baseline_mode(tmp_path, capsys):
    code, _, _ = call(capsys, *run_args(tmp_path, "--mode", "baseline"))
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[1] == "1.0" for row in rows)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mode"] == "baseline"


def test_run_uncertified_guard(tmp_path, capsys):
    bad = run_args(tmp_path, "--param", "r=-0.9")
    code, _, err = call(capsys, *bad)
    assert code == 1
    assert "certif" in err.lower()

    code, _, _ = call(capsys, *bad, "--override-uncertified")
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["uncertified"] is True


def test_run_uncertified_writes_nothing(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _, err = call(capsys, *run_args(outdir, "--param", "r=-0.9"))
    assert code == 1
    assert "certif" in err.lower()
    assert not outdir.exists()


def test_run_divergence_writes_trace_and_exits_1(tmp_path, capsys):
    # uncertified steps make the iterates overflow; the rows before it stay
    code, _, _ = call(capsys, "run", "--generator", "saddle-quadratic",
                      "--seed", "0", "--param", "n=5", "--param", "m=4",
                      "--param", "r=0.05", "--param", "s=0.05", "--budget", "1000",
                      "--override-uncertified", "--out", str(tmp_path))
    assert code == 1
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
    assert 0 < len(rows) < 1000
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failure"].startswith(f"diverged at k={len(rows)}: ")


def test_run_from_instance_file(tmp_path, capsys):
    from predcorr import instance_to_document, make_saddle_quadratic
    doc = instance_to_document(make_saddle_quadratic(2, 2, 2))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, _, _ = call(capsys, "run", "--instance", str(path),
                      "--budget", "20", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["family"] == "saddle"


def test_run_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = call(capsys, "run", "--budget", "5", "--out", str(tmp_path))
    assert code == 2
    assert "exactly one" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"generator": "two-block-l1", "params": {"n": 2, "mu": 0.5},
           "budget": 10, "mode": "baseline"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = call(capsys, "run", "--config", str(cfg_path),
                      "--budget", "15", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["budget"] == 15  # flag beats config
    assert summary["mode"] == "baseline"  # config field kept

    cfg["mystery"] = 1
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = call(capsys, "run", "--config", str(cfg_path),
                        "--out", str(tmp_path))
    assert code == 2
    assert "unknown config field" in err


def test_matrix_game_params(tmp_path, capsys):
    code, _, _ = call(capsys, "run", "--generator", "matrix-game",
                      "--param", "A=[[1.0,-1.0],[-1.0,1.0]]",
                      "--budget", "10", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["family"] == "saddle"


# ---------------------------------------------------------------------------
# rates


def synthetic_trace(path, power_gap=-2.0, power_res=-1.0, n=600):
    cols = "k,tau,gap_at_star,feasibility,pointwise_residual,objective"
    rows = [cols]
    for k in range(1, n + 1):
        rows.append(f"{k},1.0,{float(k) ** power_gap!r},0.0,"
                    f"{float(k) ** power_res!r},0.0")
    path.write_text("\n".join(rows) + "\n")


def test_rates_recovers_slopes(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    synthetic_trace(trace)
    code, out, _ = call(capsys, "rates", "--trace", str(trace),
                        "--metric", "gap_at_star", "--k-lo", "10",
                        "--k-hi", "500")
    assert code == 0
    assert "slope=-2.0000" in out

    code, out, _ = call(capsys, "rates", "--trace", str(trace),
                        "--k-lo", "10", "--k-hi", "500")  # default metric
    assert code == 0
    assert "metric=pointwise_residual" in out
    assert "slope=-1.0000" in out


def test_rates_rejects_bad_windows(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    synthetic_trace(trace, n=30)
    code, _, err = call(capsys, "rates", "--trace", str(trace),
                        "--k-lo", "10", "--k-hi", "12")
    assert code == 2
    assert "usable points" in err


def test_rates_short_row_exits_2(tmp_path, capsys):
    # a row with fewer cells than the header is named, not a traceback
    trace = tmp_path / "trace.csv"
    trace.write_text("k,tau,gap_at_star\n10,0.5\n")
    code, out, err = call(capsys, "rates", "--trace", str(trace),
                          "--metric", "gap_at_star", "--k-hi", "40")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 2" in err
    assert "Traceback" not in err


def test_fit_rate_report_direct():
    ks = np.arange(1, 2001)
    vals = 3.0 * ks.astype(float) ** -2.0
    rep = fit_rate_report(ks, vals, "gap_at_star", 100, 2000)
    assert rep.slope == pytest.approx(-2.0, abs=1e-9)
    assert rep.intercept == pytest.approx(np.log(3.0), abs=1e-9)
    assert rep.fit_residual < 1e-12
    assert rep.points == 1901

    with pytest.raises(ValueError):
        fit_rate_report(ks, vals, "gap_at_star", 5, 100)  # window too early
    with pytest.raises(ValueError):
        fit_rate_report(ks, vals, "gap_at_star", 200, 100)
    # floor values are excluded, not fit
    flat = np.full(len(ks), RATE_FLOOR)
    with pytest.raises(ValueError):
        fit_rate_report(ks, flat, "gap_at_star", 100, 2000)


# ---------------------------------------------------------------------------
# compare


def test_compare_outputs(tmp_path, capsys):
    code, _, _ = call(capsys, "compare", "--generator", "two-block-l1",
                      "--param", "n=2", "--param", "mu=0.5",
                      "--budget", "30", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "baseline_trace.csv").exists()
    assert (tmp_path / "faster_trace.csv").exists()
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["baseline"]["mode"] == "baseline"
    assert doc["faster"]["mode"] == "faster"
    assert doc["budget"] == 30


def test_compare_uncertified_writes_nothing(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _, err = call(capsys, "compare", "--generator", "two-block-l1",
                        "--param", "n=3", "--param", "mu=0.5", "--param", "r=1.5",
                        "--out", str(outdir))
    assert code == 1
    assert "certif" in err.lower()
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# console entry point


def test_console_script():
    # the child imports the same predcorr as this process, installed or not
    src = str(Path(predcorr.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "predcorr.cli"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 2
    assert "command" in proc.stderr
