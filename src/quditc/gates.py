"""Elementary gates: two-level rotations, virtual Z phase shifts, and
gate sequences.

Convention: a rotation R(theta, phi) acting on the ordered level pair
(low, high) has the 2x2 block

    [[cos(t/2),                -i e^{-i phi} sin(t/2)],
     [-i e^{i phi} sin(t/2),    cos(t/2)]]

on rows/columns (low, high) and identity elsewhere.  Writing the same
rotation with the level roles swapped negates phi, so gates are stored
with any orientation and normalized on demand.

Sequences are plain lists in application order: the first element is
applied first, i.e. it is the rightmost factor of the matrix product.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np


@dataclass(frozen=True)
class RotationGate:
    """Two-level rotation. ``routing=True`` marks a reordering pulse used
    to move logical content rather than act on it."""

    level_low: int
    level_high: int
    theta: float
    phi: float
    routing: bool = False

    def __post_init__(self):
        if self.level_low == self.level_high:
            raise ValueError("rotation levels must differ")
        if self.level_low < 0 or self.level_high < 0:
            raise ValueError("rotation levels must be non-negative")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("theta and phi must be finite")

    @property
    def is_normalized(self) -> bool:
        return self.level_low < self.level_high

    def normalized(self) -> "RotationGate":
        """Rewrite a gate written from the higher to the lower level as
        low->high, negating phi."""
        if self.is_normalized:
            return self
        return replace(
            self,
            level_low=self.level_high,
            level_high=self.level_low,
            phi=-self.phi,
        )

    def inverse(self) -> "RotationGate":
        return replace(self, theta=-self.theta)


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


def reorder_pulse(level_a: int, level_b: int) -> RotationGate:
    """Reordering pulse with default values theta=pi, phi=-pi/2.  The pulse
    swaps the levels' content either way, so it is always written in
    canonical low->high orientation."""
    lo, hi = min(level_a, level_b), max(level_a, level_b)
    return RotationGate(lo, hi, math.pi, -math.pi / 2, routing=True)


def rotation_matrix(gate: RotationGate, dim: int) -> np.ndarray:
    """Full dim x dim matrix of a two-level rotation."""
    g = gate.normalized()
    if g.level_high >= dim:
        raise ValueError(f"gate levels {g.level_low},{g.level_high} out of range for dim {dim}")
    m = np.eye(dim, dtype=np.complex128)
    c = math.cos(g.theta / 2)
    s = math.sin(g.theta / 2)
    i, j = g.level_low, g.level_high
    m[i, i] = c
    m[j, j] = c
    m[i, j] = -1j * np.exp(-1j * g.phi) * s
    m[j, i] = -1j * np.exp(1j * g.phi) * s
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
            rec = {
                "type": "R",
                "i": gate.level_low,
                "j": gate.level_high,
                "theta": gate.theta,
                "phi": gate.phi,
            }
            if gate.routing:
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
        dim = int(doc["dim"])
        gates = [_gate_from_record(rec) for rec in doc["gates"]]
        phases = doc.get("virtual_phases")
        if phases is not None:
            phases = np.asarray(phases, dtype=np.float64)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed sequence document: {exc!r}") from None
    if doc.get("order", "application") != "application":
        raise ValueError(f"unsupported gate order {doc.get('order')!r}")
    for gate in gates:
        top = gate.level if isinstance(gate, VirtualZGate) else max(gate.level_low, gate.level_high)
        if top >= dim:
            raise ValueError(f"gate level {top} out of range for dim {dim}")
    if phases is not None and (phases.ndim != 1 or not np.all(np.isfinite(phases))):
        raise ValueError("virtual_phases must be a list of finite numbers")
    return gates, dim, phases


def _gate_from_record(rec: dict) -> Gate:
    kind = rec.get("type")
    if kind == "R":
        return RotationGate(int(rec["i"]), int(rec["j"]), float(rec["theta"]),
                            float(rec["phi"]), routing=bool(rec.get("routing", False)))
    if kind == "Z":
        return VirtualZGate(int(rec["i"]), float(rec["phi"]))
    raise ValueError(f"unknown gate type {kind!r}")


def save_sequence(path: str | Path, gates, dim: int, virtual_phases=None,
                  extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(gates, dim, virtual_phases, extra), fh)
        fh.write("\n")
