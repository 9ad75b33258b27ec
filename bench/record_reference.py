"""Record the reference trace columns the benchmark checks its runs against.

    python3 bench/record_reference.py

For every workload, seeds 0-9 and both modes, stores the gap_at_star,
feasibility and pointwise_residual columns of a run of the workload's
iter_budget in ``bench/reference/<workload>.json``. Rerun this only when a
change to the numerics is intended; the benchmark fails any run that
deviates from these columns by more than 1e-10 relative.
"""
from __future__ import annotations

import json
import sys

from run import BENCH, import_library

SEEDS = range(10)


def record(workload) -> dict:
    import predcorr as pc
    from harness import REFERENCE_COLUMNS, build
    from spec import MODES
    seeds = {}
    for seed in SEEDS:
        instance = build(workload, seed)
        seeds[str(seed)] = {
            mode: {name: trace.column(name) for name in REFERENCE_COLUMNS}
            for mode in MODES
            for trace in [pc.run(instance, mode, workload.iter_budget)]}
    return {"workload": workload.name, "generator": workload.generator,
            "params": workload.params, "budget": workload.iter_budget, "seeds": seeds}


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import_library()
    from spec import WORKLOADS
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        path = out / f"{workload.name}.json"
        path.write_text(json.dumps(record(workload), indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
