"""Diagonal phase bookkeeping: commuting phase layers through rotations
so that all phases collect in a single virtual layer that is never
executed.

A diagonal D = diag(e^{i p_0}, ..) commutes with a rotation R on levels
(i, j) as  D . R(theta, a) = R(theta, a - p_i + p_j) . D : only the
rotation's phase shifts, never its angle.
"""
from __future__ import annotations

import numpy as np

from .gates import RotationGate


def conjugated(gate: RotationGate, phases) -> RotationGate:
    """D . R . D^dagger for D = diag(e^{i phases}): phi gains
    phases[high] - phases[low]."""
    g = gate.normalized()
    shift = float(phases[g.level_high]) - float(phases[g.level_low])
    return RotationGate(g.level_low, g.level_high, g.theta, g.phi + shift,
                        routing=g.routing)


def commute_through(phases, rot: RotationGate) -> tuple[RotationGate, np.ndarray]:
    """Move a diagonal from after a rotation to before it.

    Returns the adjusted rotation R(theta, a - p_low + p_high); the phases
    pass through unchanged.
    """
    p = np.asarray(phases, dtype=np.float64)
    return conjugated(rot, p), p

