"""Extrapolation weight sequence.

The accelerated mode scales its extrapolation by weights tau^k tied together
by the recurrence 1/tau^{k-1} = (1 - tau^k)/tau^k, seeded by a value
tau_init in (0,1) at index -1. The recurrence telescopes to the closed form
tau^k = 1/(1/tau_init + k + 1), so tau^k behaves like 1/k; both forms are
provided and must agree to near machine precision. The run loop iterates
tau_next from tau_init, so its weights are the recurrence's floats.
"""
from __future__ import annotations

import math

DEFAULT_TAU_INIT = 0.5


def _check_unit_interval(value: float, name: str) -> float:
    # Below about 5.6e-309 the reciprocal overflows, so the next weight would
    # be exactly 0 and the prediction's division by tau undefined.
    value = float(value)
    if not (0.0 < value < 1.0 and math.isfinite(1.0 / value)):
        raise ValueError(
            f"{name} must lie strictly inside (0, 1) with a finite reciprocal, got {value}")
    return value


def tau_next(tau_prev: float) -> float:
    """Next weight after tau_prev: the unique tau with 1/tau = 1 + 1/tau_prev."""
    tau_prev = _check_unit_interval(tau_prev, "tau_prev")
    return 1.0 / (1.0 + 1.0 / tau_prev)


def tau_at(tau_init: float, k: int) -> float:
    """Closed form tau^k = 1/(1/tau_init + k + 1) for k >= 0."""
    tau_init = _check_unit_interval(tau_init, "tau_init")
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return 1.0 / (1.0 / tau_init + k + 1.0)

