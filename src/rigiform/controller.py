"""Controller configuration and the consistent distance errors.

Agents measure squared distances along their incident edges.  The head of
an edge is assumed to read the consistent value; the tail's reading may be
corrupted by the edge's disturbance signal.  The gradient law descends the
squared-error potential using those raw readings.  The estimator law runs
one internal-model unit per edge, owned by the tail agent, that reproduces
and cancels the tail-side corruption.

This module holds the modes and the validated controller settings.  Both
laws are implemented once, in `sim`'s closed-loop kernel, which also
integrates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disturbance import InternalModelBasis, check_observability
from .rigidity import Framework, edge_function

MODES = ("gradient_only", "estimator")


def consistent_errors(framework: Framework) -> np.ndarray:
    """Squared-distance errors with no disturbance: ||z_k||^2 - d_k^2."""
    return edge_function(framework) - framework.target_distances ** 2


@dataclass(frozen=True)
class ControllerConfig:
    """Mode, estimator gain, and the internal-model output vector."""

    mode: str
    kappa: float
    basis: InternalModelBasis

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        kappa = float(self.kappa)
        if not math.isfinite(kappa) or kappa <= 0:
            raise ValueError("kappa must be positive and finite")
        object.__setattr__(self, "kappa", kappa)
        if self.mode == "estimator" and not check_observability(self.basis):
            raise ValueError("estimator mode needs an observable internal-model basis")
