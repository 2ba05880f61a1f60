"""Component-wise 3-sigma innovation gate for outlier rejection."""

from dataclasses import dataclass

import numpy as np

from .types import Innovation

SIGMA_BOUND = 3.0


@dataclass(frozen=True)
class GateDecision:
    """Outcome of the gate plus the per-component margins |y_k| / sqrt(S_kk)."""

    accepted: bool
    margins: np.ndarray


def gate(inn: Innovation) -> GateDecision:
    """Accept only if every innovation component is inside its 3-sigma bound.

    An S with a diagonal entry that is not positive rejects with infinite
    margins, so the caller can log the diagnostic instead of crashing
    mid-run. Only the diagonal is checked: an S that is not positive
    definite but has a positive diagonal is gated like any other.
    """
    diag = np.diag(inn.S)
    if np.any(diag <= 0.0):
        return GateDecision(False, np.full(6, np.inf))
    margins = np.abs(inn.y) / np.sqrt(diag)
    return GateDecision(bool(np.all(margins < SIGMA_BOUND)), margins)
