"""Elementary gates: two-level rotations, virtual Z phase shifts, and
gate sequences.

Convention: a rotation R(theta, phi) acting on the ordered level pair
(low, high) has the 2x2 block

    [[cos(t/2),                -i e^{-i phi} sin(t/2)],
     [-i e^{i phi} sin(t/2),    cos(t/2)]]

on rows/columns (low, high) and identity elsewhere.  Writing the same
rotation with the level roles swapped negates phi, so a gate written
high->low is stored low->high with phi negated: every RotationGate has
level_low < level_high.  A RotationGate is the immutable 5-tuple
(level_low, level_high, theta, phi, routing) that emission records; a
reordering pulse is R(PULSE_THETA, PULSE_PHI) = R(pi, -pi/2).

Sequences are plain lists in application order: the first element is
applied first, i.e. it is the rightmost factor of the matrix product.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from .linalg import as_int, as_real, check_size


class _RotationFields(NamedTuple):
    level_low: int
    level_high: int
    theta: float
    phi: float
    routing: bool = False


class RotationGate(_RotationFields):
    """Two-level rotation, an immutable tuple (level_low, level_high, theta,
    phi, routing).  ``routing=True`` marks a reordering pulse used to move
    logical content rather than act on it."""

    __slots__ = ()

    def __new__(cls, level_low: int, level_high: int, theta: float, phi: float,
                routing: bool = False):
        if level_low == level_high:
            raise ValueError("rotation levels must differ")
        if level_low < 0 or level_high < 0:
            raise ValueError("rotation levels must be non-negative")
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("theta and phi must be finite")
        low, high, phi = stored_order(level_low, level_high, phi)
        return tuple.__new__(cls, (low, high, theta, phi, routing))

    # _replace builds through _make: a replaced gate is checked as a new one
    _make = classmethod(lambda cls, fields: cls(*fields))

    def inverse(self) -> "RotationGate":
        return self._replace(theta=-self.theta)


def stored_order(level_a: int, level_b: int, phi: float) -> tuple:
    """(low, high, phi) of a rotation written on (level_a, level_b): one
    written high->low is stored low->high with phi negated.  The one
    implementation of that rule, for the constructor and for emission."""
    return (level_a, level_b, phi) if level_a < level_b else (level_b, level_a, -phi)


def shifted_phi(phi: float, phases, low: int, high: int) -> float:
    """The rotation phase rule: under D = diag(e^{i phases}) a rotation on
    (low, high) gains phases[high] - phases[low], so that D . R(theta, phi)
    = R(theta, shifted_phi(phi, ...)) . D.  Its one definition, for
    :func:`conjugated` and for emission's scalar form; qr.emit_steps and
    _compile.assemble write it inline, and the tests hold each to it bit
    for bit."""
    return phi + (float(phases[high]) - float(phases[low]))


def conjugated(gate, phases) -> RotationGate:
    """D . R . D^dagger for D = diag(e^{i phases}), by :func:`shifted_phi`.
    ``gate`` is any (low, high, theta, phi, routing) tuple with low < high:
    a RotationGate or an emitted record; assembly builds each gate of a
    result once, here.  The gate is built without the constructor: theta
    and the new phi must be finite (else ValueError)."""
    low, high, theta, phi, routing = gate
    phi = shifted_phi(phi, phases, low, high)
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("theta and phi must be finite")
    return tuple.__new__(RotationGate, (low, high, theta, phi, routing))


@dataclass(frozen=True)
class VirtualZGate:
    """Single-level phase shift, tracked in software at zero cost."""

    level: int
    phi: float

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")


Gate = Union[RotationGate, VirtualZGate]


# A reordering pulse's (theta, phi): R(pi, -pi/2) on two coupled levels.
PULSE_THETA, PULSE_PHI = math.pi, -math.pi / 2


def reorder_pulse(level_a: int, level_b: int) -> RotationGate:
    """Reordering pulse R(PULSE_THETA, PULSE_PHI), written low->high as it
    swaps the levels' content either way."""
    lo, hi = min(level_a, level_b), max(level_a, level_b)
    return RotationGate(lo, hi, PULSE_THETA, PULSE_PHI, routing=True)


def rotation_matrix(gate: RotationGate, dim: int) -> np.ndarray:
    """Full dim x dim matrix of a two-level rotation."""
    i, j = gate.level_low, gate.level_high
    if j >= dim:
        raise ValueError(f"gate levels {i},{j} out of range for dim {dim}")
    m = np.eye(dim, dtype=np.complex128)
    c = math.cos(gate.theta / 2)
    s = math.sin(gate.theta / 2)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -1j * np.exp(-1j * gate.phi) * s
    m[j, i] = -1j * np.exp(1j * gate.phi) * s
    return m


def virtual_z_matrix(gate: VirtualZGate, dim: int) -> np.ndarray:
    """Diagonal matrix with e^{i phi} at the gate's level, 1 elsewhere."""
    if gate.level >= dim:
        raise ValueError(f"gate level {gate.level} out of range for dim {dim}")
    diag = np.ones(dim, dtype=np.complex128)
    diag[gate.level] = np.exp(1j * gate.phi)
    return np.diag(diag)


def gate_matrix(gate: Gate, dim: int) -> np.ndarray:
    if isinstance(gate, RotationGate):
        return rotation_matrix(gate, dim)
    return virtual_z_matrix(gate, dim)


def sequence_matrix(gates, dim: int) -> np.ndarray:
    """Product of gate matrices, later gates on the left."""
    m = np.eye(dim, dtype=np.complex128)
    for gate in gates:
        m = gate_matrix(gate, dim) @ m
    return m


def sequence_to_dict(gates, dim: int, virtual_phases=None, extra: dict | None = None) -> dict:
    """Serializable form of a gate sequence (application order)."""
    records = []
    for gate in gates:
        if isinstance(gate, RotationGate):
            low, high, theta, phi, routing = gate
            rec = {"type": "R", "i": low, "j": high, "theta": theta, "phi": phi}
            if routing:
                rec["routing"] = True
        else:
            rec = {"type": "Z", "i": gate.level, "phi": gate.phi}
        records.append(rec)
    doc = {"dim": dim, "gates": records, "order": "application"}
    if virtual_phases is not None:
        doc["virtual_phases"] = [float(p) for p in virtual_phases]
    if extra:
        doc.update(extra)
    return doc


def sequence_from_dict(doc: dict) -> tuple[list[Gate], int, np.ndarray | None]:
    """Parse a sequence document; returns (gates, dim, virtual_phases).
    Any malformed part raises ValueError."""
    try:
        dim = as_int(doc["dim"])
        check_size(dim, "sequence dim")
        gates = [_gate_from_record(rec) for rec in doc["gates"]]
        phases = doc.get("virtual_phases")
        if phases is not None:
            phases = np.array([as_real(p) for p in phases])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sequence document: {exc!r}") from None
    if doc.get("order", "application") != "application":
        raise ValueError(f"unsupported gate order {doc.get('order')!r}")
    for gate in gates:
        top = gate.level if isinstance(gate, VirtualZGate) else gate.level_high
        if top >= dim:
            raise ValueError(f"gate level {top} out of range for dim {dim}")
    if phases is not None and not np.all(np.isfinite(phases)):
        raise ValueError("virtual_phases must be a list of finite numbers")
    return gates, dim, phases


def _gate_from_record(rec: dict) -> Gate:
    kind = rec.get("type")
    if kind == "R":
        routing = rec.get("routing", False)
        if not isinstance(routing, bool):
            raise ValueError(f"routing must be true or false, got {routing!r}")
        return RotationGate(as_int(rec["i"]), as_int(rec["j"]), as_real(rec["theta"]),
                            as_real(rec["phi"]), routing=routing)
    if kind == "Z":
        return VirtualZGate(as_int(rec["i"]), as_real(rec["phi"]))
    raise ValueError(f"unknown gate type {kind!r}")


def save_sequence(path: str | Path, gates, dim: int, virtual_phases=None,
                  extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(gates, dim, virtual_phases, extra), fh)
        fh.write("\n")
