"""Per-iteration records produced by solver runs.

Each record holds the measured quantities at one iteration, evaluated at the
mode's theorem point: the running average of prediction points in baseline
mode, the accelerated iterate itself in faster mode. The squared weighted
distance to the oracle (vdist_sq_h) is kept on records for bound checks but
is not part of the exported CSV schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import BlockVector

CSV_COLUMNS = ("k", "tau", "gap_at_star", "feasibility", "pointwise_residual", "objective")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    tau: float
    gap_at_star: float
    feasibility: float
    pointwise_residual: float
    objective: float
    vdist_sq_h: float | None = None

    def csv_fields(self) -> tuple:
        return (self.k, self.tau, self.gap_at_star, self.feasibility,
                self.pointwise_residual, self.objective)


@dataclass
class IterationTrace:
    """Run output: per-iteration records plus run metadata."""

    family: str
    mode: str
    budget: int
    tau_init: float
    records: list[TraceRecord] = field(default_factory=list)
    certificate: object | None = None
    uncertified: bool = False
    initial_vdist_sq_h: float | None = None
    final_v: object | None = None
    final_breve: BlockVector | None = None
    failure: str | None = None

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> list:
        if name not in CSV_COLUMNS and name != "vdist_sq_h":
            raise KeyError(f"unknown trace column {name!r}")
        return [getattr(rec, name) for rec in self.records]
