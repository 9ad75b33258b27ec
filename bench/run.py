"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload consensus-l1 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Report lines go to standard output first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. ``--out PATH`` also
writes the full result (environment, sample counts, tail percentiles,
failure reasons) as JSON.

BLAS is pinned to one thread before numpy is imported, so every figure is
a single-threaded baseline.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "predcorr"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result document here")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import predcorr from this checkout's src directory, or exit 1."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no library source at {PACKAGE}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import predcorr
    if Path(predcorr.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: imported predcorr from {predcorr.__file__}, not {PACKAGE}")


def _blas_threads(np):
    """Threads the OpenBLAS bundled with numpy reports, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def load_reference(name: str):
    path = BENCH / "reference" / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def report_lines(workload: str, metrics: dict, shares=None) -> list:
    lines = []
    for name, m in metrics.items():
        line = f"{workload} {name} median={m['value']:.6g} {m['unit']}"
        if "n" in m:
            tail = (f"p{m['tail_pct']}={m['tail']:.6g}" if m["tail"] is not None
                    else "tail=n/a")
            line += f" {tail} n={m['n']} unscaled_median={m['raw']:.6g}"
        lines.append(line)
    for mode, groups in (shares or {}).items():
        parts = " ".join(f"{g}={s:.1%}" for g, s in groups.items())
        lines.append(f"{workload} {mode} self-time shares: {parts}")
    return lines


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from spec import WORKLOADS, per_layer_metrics
    args = parse_args(argv, WORKLOADS)
    import_library()
    import harness

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp", dir=ROOT))
    try:
        session = harness.Session(workload, args.seed, workdir, load_reference(workload.name))
        shares = scale = None
        if args.trace:
            values, shares = harness.measure_layers(session, args.seconds)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in per_layer_metrics()}
        else:
            metrics, scale = harness.measure_end_to_end(session, args.seconds)
            print(f"{workload.name} speed scale={scale:.4f} "
                  "(reference kernel time / measured, median over turns)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = session.ops
    for line in report_lines(workload.name, metrics, shares):
        print(line)
    print(f"{workload.name} ops attempted={ops.attempted} failed={len(ops.failures)}")
    for reason in ops.failures[:10]:
        print(f"failed op: {reason}")
    if args.out:
        doc = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
               "env": env, "speed_scale": scale, "metrics": metrics, "shares": shares,
               "attempted": ops.attempted, "failures": ops.failures}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
