"""Diagonal phase bookkeeping: commuting phase layers through rotations
so that all phases collect in a single virtual layer that is never
executed.

A diagonal D = diag(e^{i p_0}, ..) commutes with a rotation R on levels
(i, j) as  D . R(theta, a) = R(theta, a - p_i + p_j) . D : only the
rotation's phase shifts, never its angle.
"""
from __future__ import annotations

import numpy as np

from .gates import RotationGate, VirtualZGate


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


def sweep_phases(gates, leading=None, dim: int | None = None):
    """Collapse every virtual Z gate and the leading diagonal into a single
    phase layer, leaving only rotations.

    The input sequence is in application order with ``leading`` applied
    first.  Returns (rotations, theta) with the exact identity

        matrix(gates) . diag(e^{i leading}) == matrix(rotations) . diag(e^{i theta})

    so the total operation is preserved, not just up to global phase.
    """
    if dim is None:
        dim = 0
        for g in gates:
            if isinstance(g, VirtualZGate):
                dim = max(dim, g.level + 1)
            else:
                dim = max(dim, g.level_low + 1, g.level_high + 1)
        if leading is not None:
            dim = max(dim, len(np.asarray(leading)))
    acc = np.zeros(dim, dtype=np.float64)
    if leading is not None:
        lead = np.asarray(leading, dtype=np.float64)
        acc[: len(lead)] += lead

    # First pass: pull the accumulated diagonal leftward past each rotation,
    # so Zs merge into it in O(1).
    staged: list[RotationGate] = []
    for gate in gates:
        if isinstance(gate, VirtualZGate):
            acc[gate.level] += gate.phi
        else:
            staged.append(conjugated(gate, -acc))
    # Second pass: push the final diagonal back to the applied-first side.
    rotations = [conjugated(g, acc) for g in staged]
    return rotations, acc
