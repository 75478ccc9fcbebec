"""Shared machinery for the two decomposition back-ends: the result type,
the elimination primitives, routed emission and the final assembly.

Both compilers annihilate the conjugate transpose of the target column by
column with two-level rotations, so that the emitted gates in application
order multiply to (diagonal) . U.  Emission (qr.emit_steps, one loop over
the steps) keeps each gate as a record (low, high, theta, phi, routing),
the tuple a RotationGate is, with the walk's stored phases already in phi.
The final assembly reads the emitter's walk: it folds every remaining
tracked phase (node deposits plus the terminal diagonal) into the records'
phi in one comprehension, checks every theta and phi finite once, and
builds the final graph once from the walk's placement, leaving the
reconstruction identity

    matrix(sequence) . E_initial . diag(e^{i theta}) == E_final . U

with E_* the embeddings of logical states onto physical levels.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cost import rotation_cost  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .gates import PULSE_PHI, PULSE_THETA, RotationGate, shifted_phi, stored_order
from .gates import conjugated  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .graph import CouplingGraph, PlacementWalk
from .graph import plan_routing  # noqa: F401  (a binding benchmark/tracing.py wraps)


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
    dead_at_cap: int = 0  # nodes one step from the depth cap with > 2 dirty rows
    cut_by_bound: int = 0  # children whose angle bound reached the incumbent's cost


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


def compile_levels(graph: CouplingGraph, dim: int) -> list[int]:
    """Start levels of the logical states a dim-dimensional unitary
    addresses, in matrix index order.  dim must cover either the
    computational states or every mapped state (ancilla blocks included)."""
    if dim == graph.num_computational or dim == graph.num_states:
        return [graph.logical_map[s] for s in graph.state_order()[:dim]]
    raise ValueError(
        f"unitary dim {dim} matches neither the {graph.num_computational} "
        f"computational states nor all {graph.num_states} mapped states"
    )


def annihilation_angles(m, r: int, r2: int, c: int) -> tuple[float, float]:
    """Rotation parameters that zero entry (r2, c) into entry (r, c) of m (a
    matrix or its rows); phases by np.arctan2, bit for bit as np.angle.  The
    scalar form of the angles that the ladder and the search take from
    column moduli and phases."""
    low, high = m[r2][c], m[r][c]
    theta = 2.0 * math.atan2(abs(low), abs(high))
    phi = -(math.pi / 2 + np.arctan2(high.imag, high.real) - np.arctan2(low.imag, low.real))
    return theta, float(phi)


def rotation_coefficients(theta: float, phi: float) -> tuple:
    """(c, a, b) of the two-level rotation's block [[c, a], [b, c]]."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    # Two cmath.exp calls, not one and its conjugate: at phi = -0.0 both
    # exponentials are 1+0j, and at theta = 0 that zero's sign reaches the rows.
    return c, -1j * cmath.exp(-1j * phi) * s, -1j * cmath.exp(1j * phi) * s


def rotation_scratch(dim: int) -> tuple:
    """Reused buffers of apply_rotation_rows for rows of length dim: the
    2x2 coefficients coef[j, i] (row j's weight in row i, as the ladder
    lays them out), the two rows gathered as (2, 1, dim) and the products
    coef[j, i] * row j, with views of each."""
    coef = np.empty((2, 2, 1), dtype=np.complex128)
    gathered = np.empty((2, 1, dim), dtype=np.complex128)
    products = np.empty((2, 2, dim), dtype=np.complex128)
    return (coef, coef.reshape(4), gathered, gathered[0, 0], gathered[1, 0],
            products, products[0], products[1])


def apply_rotation_rows(x: np.ndarray, y: np.ndarray, theta: float, phi: float,
                        scratch: tuple) -> np.ndarray:
    """Rows (x, y) left-multiplied by the two-level rotation on them: a new
    (2, d) array of (c x + a y, b x + c y); the inputs are not modified.
    The paired update, with the ladder's arithmetic (which runs it in
    place): the rows are gathered into scratch, rotation_scratch(d), then
    one np.multiply by the coefficients and one np.add give both rows."""
    coef, weights, gathered, x_in, y_in, products, from_x, from_y = scratch
    c, a, b = rotation_coefficients(theta, phi)
    weights[0], weights[1], weights[2], weights[3] = c, b, a, c
    x_in[...] = x
    y_in[...] = y
    np.multiply(coef, gathered, out=products)
    return np.add(from_x, from_y)


def emit_rotation(walk: PlacementWalk, i: int, j: int, theta: float, phi: float) -> list:
    """Route state j adjacent to state i on the walk, then emit the rotation
    with the walk's phases.  Returns the records (low, high, theta, phi,
    routing) of the routing pulses, then of the rotation.  The scalar form
    of one step of qr.emit_steps, which the tests hold it to."""
    records = [(low, high, PULSE_THETA, PULSE_PHI, True) for low, high in walk.route(i, j)]
    low, high, phi = stored_order(walk.levels[i], walk.levels[j], phi)
    records.append((low, high, theta, shifted_phi(phi, walk.phases, low, high), False))
    return records


def assemble(walk: PlacementWalk, records, remaining: np.ndarray, initial: list):
    """Fold the walk's stored phases and the terminal diagonal into the
    emitted records of the states at levels initial and build each gate once.

    Returns (sequence, residual_phases, final graph) satisfying the
    reconstruction identity exactly: the final graph is built once, with
    the walk's placement and no stored phase.

    Each gate is gates.conjugated of its record under the shifts s, bit for
    bit (the tests hold it to that): phi + (s[high] - s[low]), the rotation
    phase rule, inline in one comprehension, then one check, after all the
    gates, that every theta and phi is finite, with conjugated's ValueError.
    """
    start = walk.start
    delta = np.angle(np.diag(remaining))
    dphase = np.array(walk.phases, dtype=np.float64)
    for k in range(len(initial)):
        dphase[walk.levels[k]] += delta[k]
    s, new, gate = (-dphase).tolist(), tuple.__new__, RotationGate
    sequence = tuple([new(gate, (lo, hi, th, ph + (s[hi] - s[lo]), ro))
                      for lo, hi, th, ph, ro in records])
    if sequence:
        # a sum of floats is finite only if every term is; a sum of finite
        # terms that overflows falls to the termwise test
        _, _, thetas, phis, _ = zip(*sequence)
        if not (math.isfinite(sum(thetas) + sum(phis)) or all(map(math.isfinite, thetas + phis))):
            raise ValueError("theta and phi must be finite")
    theta = np.angle(np.exp(1j * (np.array(start.node_phase)[initial] - dphase[initial])))
    return sequence, theta, walk.graph((0.0,) * start.num_levels)
