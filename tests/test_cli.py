import json
import subprocess
import sys

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# console entry point


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "predcorr.cli"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "command" in proc.stderr
