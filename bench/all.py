"""Run every workload, each in its own process, and print all their metrics.

    python3 bench/all.py [--seed 0] [--seconds 30] [--trace 0] [--out-dir DIR]

Prints each workload's report lines (every metric by name, with its unit,
median, tail percentile and sample count) and ends with the total of
attempted and failed operations. Exits 1 if any operation failed or any
workload run did not finish. With --out-dir, each workload's full result
is written to DIR/<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spec import RUN_SECONDS, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir")
    args = p.parse_args(argv)

    attempted = failed = 0
    broken = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out_dir:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            cmd += ["--out", str(Path(args.out_dir) / f"{name}.json")]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            broken.append(name)
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
    print(f"all workloads: attempted={attempted} failed={failed}"
          + (f" unfinished={','.join(broken)}" if broken else ""))
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main())
