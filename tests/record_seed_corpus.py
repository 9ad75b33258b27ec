"""Record the seed corpus: checkpoint rows of the seed commit's traces.

    python3 tests/record_seed_corpus.py

writes tests/seed_corpus.json. Run it from a git checkout: it extracts the
seed commit's library (``git archive 3b0da7a src``) into a temporary
directory and runs every case of CASES there, in a child process with
OPENBLAS_NUM_THREADS=1, since the oracle's last digits depend on the BLAS
thread count. tests/test_seed_corpus.py holds the current library to this
file at 1e-10 relative.

Re-record only for an intended change to the numerics, and add a line to
CHANGES.md that says why. A drift that the gate catches is otherwise a
fault to mend, not a corpus to refresh.

Each case is one instance run for 200 iterations in both modes from the
default start and tau_init. The corpus keeps the rows at CHECKPOINTS of
every trace.csv column and of vdist_sq_h, the row count, the failure, and
both certificate pivots.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED_COMMIT = "3b0da7a"
BUDGET = 200
CHECKPOINTS = (0, 1, 2, 5, 10, 20, 50, 100, 199)
COLUMNS = ("k", "tau", "gap_at_star", "feasibility", "pointwise_residual", "objective",
           "vdist_sq_h")
CORPUS = Path(__file__).resolve().parent / "seed_corpus.json"
ROCK_PAPER_SCISSORS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]

# (name, generator, seed, positional parameters); the game's matrix is drawn
# from SplitMix64(seed) except for rock-paper-scissors. The last three are
# the benchmark's workloads; consensus-l1 is the one whose correction space
# is held as stacks of small blocks.
CASES = [
    *((f"two-block-quadratic/{s}", "make_two_block_quadratic", s, (4, 3, 5)) for s in range(3)),
    *((f"two-block-l1/{s}", "make_two_block_l1", s, (6, 0.5)) for s in range(3)),
    *((f"multi-block-quadratic/{s}", "make_multiblock_quadratic", s, (4, 3, 6))
      for s in range(3)),
    *((f"multi-block-3-5-3/{s}", "make_multiblock_quadratic", s, (3, 5, 3)) for s in range(3)),
    *((f"saddle-quadratic/{s}", "make_saddle_quadratic", s, (5, 4)) for s in range(3)),
    *((f"matrix-game/{s}", "make_matrix_game", s, ()) for s in range(3)),
    ("rock-paper-scissors", "make_matrix_game", None, ()),
    ("consensus-l1", "make_two_block_l1", 0, (200, 0.5)),
    ("saddle-quad", "make_saddle_quadratic", 0, (120, 90)),
    ("multiblock-small", "make_multiblock_quadratic", 0, (8, 8, 16)),
]


def build(pc, generator: str, seed, params: tuple):
    """The instance of one case, from the library module pc."""
    if generator == "make_matrix_game":
        A = (ROCK_PAPER_SCISSORS if seed is None
             else 2.0 * pc.SplitMix64(seed).matrix(3, 4) - 1.0)
        return pc.make_matrix_game(np.array(A))
    return getattr(pc, generator)(seed, *params)


def run_case(pc, generator: str, seed, params: tuple) -> dict:
    """{mode: trace} of one case, from the library module pc."""
    inst = build(pc, generator, seed, params)
    return {mode: pc.run(inst, mode, BUDGET) for mode in ("baseline", "faster")}


def checkpoint_doc(traces: dict) -> dict:
    """The corpus entry of one case: both pivots and each mode's checkpoint rows."""
    cert = traces["baseline"].certificate
    doc = {"pivots": [cert.h_min_pivot, cert.g_min_pivot]}
    for mode, trace in traces.items():
        rows = [trace.records[k] for k in CHECKPOINTS if k < len(trace.records)]
        doc[mode] = {"rows": len(trace.records), "failure": trace.failure}
        for c in COLUMNS:
            doc[mode][c] = [None if getattr(r, c) is None else float(getattr(r, c))
                            for r in rows]
    return doc


def record(pc) -> dict:
    return {name: checkpoint_doc(run_case(pc, *case)) for name, *case in CASES}


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(repo), "archive", SEED_COMMIT, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(tmp) / "src"))
        child = ("import json, sys, predcorr, record_seed_corpus as r; "
                 f"assert predcorr.__file__.startswith({tmp!r}), predcorr.__file__; "
                 "json.dump(r.record(predcorr), sys.stdout)")
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True,
                             cwd=Path(__file__).resolve().parent).stdout
    cases = json.loads(out)
    head = {"seed_commit": SEED_COMMIT, "budget": BUDGET, "checkpoints": list(CHECKPOINTS)}
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in cases.items()]
    CORPUS.write_text(json.dumps(head)[:-1] + ', "cases": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {CORPUS} ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
