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
    """D . R . D^dagger for D = diag(e^{i phases}), written low->high:
    phi gains phases[high] - phases[low].  The one implementation of the
    rotation phase rule, at emission and at assembly alike."""
    lo, hi, phi = gate.level_low, gate.level_high, gate.phi
    if lo > hi:
        lo, hi, phi = hi, lo, -phi
    shift = float(phases[hi]) - float(phases[lo])
    return RotationGate(lo, hi, gate.theta, phi + shift, routing=gate.routing)


def commute_through(phases, rot: RotationGate) -> tuple[RotationGate, np.ndarray]:
    """Move a diagonal from after a rotation to before it.

    Returns the adjusted rotation R(theta, a - p_low + p_high); the phases
    pass through unchanged.
    """
    p = np.asarray(phases, dtype=np.float64)
    return conjugated(rot, p), p

