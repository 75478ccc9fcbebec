"""Shared machinery for the two decomposition back-ends: the result type,
the elimination primitives, routed emission and the final assembly.

Both compilers annihilate the conjugate transpose of the target column by
column with two-level rotations, so that the emitted gates in application
order multiply to (diagonal) . U.  A final conjugation pass folds every
tracked phase (node deposits plus the terminal diagonal) into the gates'
phi parameters, leaving the reconstruction identity

    matrix(sequence) . E_initial . diag(e^{i theta}) == E_final . U

with E_* the embeddings of logical states onto physical levels.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cost import rotation_cost  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .gates import RotationGate
from .graph import CouplingGraph, plan_routing
from .phases import conjugated


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    max_depth: int = 0
    solutions_found: int = 0
    cost_limit: float = 0.0
    wall_time_ms: float = 0.0
    # "exhausted" (the result is optimal within the limit and depth),
    # "node_budget" or "first_solution"
    stop_reason: str = "exhausted"
    beat_warm_start: bool = False  # a search incumbent replaced the ladder's


@dataclass(frozen=True, eq=False)
class CompilationResult:
    """A decomposition from either back-end.  ``stats`` holds the adaptive
    search's statistics and is None for the fixed qr sequence."""

    sequence: tuple
    residual_phases: np.ndarray
    total_cost: float
    stats: SearchStats | None
    initial_graph: CouplingGraph
    final_graph: CouplingGraph

    @property
    def rotation_count(self) -> int:
        """Logical rotations; every other gate is a routing pulse."""
        return sum(1 for g in self.sequence if not g.routing)

    @property
    def pulse_count(self) -> int:
        return len(self.sequence) - self.rotation_count


def compile_states(graph: CouplingGraph, dim: int) -> list[str]:
    """Logical states addressed by a dim-dimensional unitary, in matrix
    index order.  dim must cover either the computational states or every
    mapped state (ancilla blocks included)."""
    order = graph.state_order()
    if dim == graph.num_computational or dim == graph.num_states:
        return order[:dim]
    raise ValueError(
        f"unitary dim {dim} matches neither the {graph.num_computational} "
        f"computational states nor all {graph.num_states} mapped states"
    )


def annihilation_angles(m: np.ndarray, r: int, r2: int, c: int) -> tuple[float, float]:
    """Rotation parameters that zero entry (r2, c) into entry (r, c)."""
    theta = 2.0 * math.atan2(abs(m[r2, c]), abs(m[r, c]))
    phi = -(math.pi / 2 + np.angle(m[r, c]) - np.angle(m[r2, c]))
    return theta, float(phi)


def apply_rotation_rows(x: np.ndarray, y: np.ndarray, theta: float, phi: float):
    """Rows (x, y) left-multiplied by the two-level rotation on them; the
    inputs are not modified."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    # Two cmath.exp calls, not one and its conjugate: at phi = -0.0 both
    # exponentials are 1+0j, and at theta = 0 that zero's sign reaches the rows.
    a = -1j * cmath.exp(-1j * phi) * s
    b = -1j * cmath.exp(1j * phi) * s
    return c * x + a * y, b * x + c * y


def emit_rotation(graph: CouplingGraph, state_i, state_j, theta: float, phi: float):
    """Route state_j adjacent to state_i, then emit the phase-adjusted
    rotation.  Returns (gates, new_graph): the routing pulses, then the
    rotation."""
    plan = plan_routing(graph, state_i, state_j)
    g = plan.resulting_graph
    rot = RotationGate(g.level_of(state_i), g.level_of(state_j), theta, phi)
    return list(plan.pulses) + [conjugated(rot, g.node_phase)], g


def assemble(initial_graph: CouplingGraph, final_graph: CouplingGraph, gates,
             remaining: np.ndarray, dim: int):
    """Fold node phases and the terminal diagonal into the gate train.

    Returns (sequence, residual_phases, cleaned final graph) satisfying the
    reconstruction identity exactly.
    """
    states = initial_graph.state_order()[:dim]
    delta = np.angle(np.diag(remaining))
    dphase = np.array(final_graph.node_phase, dtype=np.float64)
    for k, state in enumerate(states):
        dphase[final_graph.level_of(state)] += delta[k]
    sequence = tuple(conjugated(g, -dphase) for g in gates)
    theta = np.empty(dim, dtype=np.float64)
    for k, state in enumerate(states):
        lv = initial_graph.level_of(state)
        theta[k] = initial_graph.node_phase[lv] - dphase[lv]
    theta = np.angle(np.exp(1j * theta))
    return sequence, theta, final_graph._clone(node_phase=(0.0,) * final_graph.num_levels)
