"""Shared machinery for the two decomposition back-ends: the result type,
the elimination primitives, and emit and assemble, which turn steps into
a result.

Both compilers annihilate the conjugate transpose of the target column by
column with two-level rotations, so that the emitted gates in application
order multiply to (diagonal) . U.  Both end in assemble of an emission,
the one builder of a CompilationResult; emit and assemble are the only
code that knows the gate records and the placement walk.  Every result
satisfies the reconstruction identity

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


def rotation_coefficients(co: float, si: float, phi: float) -> tuple:
    """(c, a, b) of the two-level rotation's block [[c, a], [b, c]] by theta,
    from co = cos(theta / 2) and si = sin(theta / 2), which every caller
    computes as math.cos(theta / 2) and math.sin(theta / 2) (the search
    once per child, for its decision and its rows)."""
    # Two cmath.exp calls, not one and its conjugate: at phi = -0.0 both
    # exponentials are 1+0j, and at theta = 0 that zero's sign reaches the rows.
    return co, -1j * cmath.exp(-1j * phi) * si, -1j * cmath.exp(1j * phi) * si


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


def apply_rotation_rows(x: np.ndarray, y: np.ndarray, co: float, si: float, phi: float,
                        scratch: tuple) -> np.ndarray:
    """Rows (x, y) left-multiplied by the two-level rotation by theta on
    them, given co = cos(theta / 2) and si = sin(theta / 2) (as
    rotation_coefficients takes them): a new (2, d) array of (c x + a y,
    b x + c y); the inputs are not modified.  The paired update, with the
    ladder's arithmetic (which runs it in place): the rows are gathered
    into scratch, rotation_scratch(d), then one np.multiply by the
    coefficients and one np.add give both rows."""
    coef, weights, gathered, x_in, y_in, products, from_x, from_y = scratch
    c, a, b = rotation_coefficients(co, si, phi)
    weights[0], weights[1], weights[2], weights[3] = c, b, a, c
    x_in[...] = x
    y_in[...] = y
    np.multiply(coef, gathered, out=products)
    return np.add(from_x, from_y)


def emit_rotation(walk: PlacementWalk, i: int, j: int, theta: float, phi: float) -> list:
    """Route state j adjacent to state i on the walk, then emit the rotation
    with the walk's phases.  Returns the records (low, high, theta, phi,
    routing) of the routing pulses, then of the rotation.  The scalar form
    of one step of emit's loop, which the tests hold it to."""
    records = [(low, high, PULSE_THETA, PULSE_PHI, True) for low, high in walk.route(i, j)]
    low, high, phi = stored_order(walk.levels[i], walk.levels[j], phi)
    records.append((low, high, theta, shifted_phi(phi, walk.phases, low, high), False))
    return records


def emit(graph: CouplingGraph, steps, undo: bool) -> tuple:
    """(walk, records, pulses): the steps (r, r2, theta, phi) on the states
    of graph.state_order() emitted on one placement walk, as the records
    (low, high, theta, phi, routing) in application order, and each step's
    routing pulses counted before any undo.  With undo each rotation's
    routing is inverted right after it (the fixed sequence); without it the
    placement moves on.  One loop, bit for bit emit_rotation's records and
    walk (the tests keep it as the reference): state r2 is pulsed hop by hop
    along walk.nxt towards state r by walk.pulse, the one pulse rule; the
    rotation's record is in stored order (gates.stored_order) with the
    walk's phase shift inline (gates.shifted_phi); undo pulses the same
    hops back, last first, by -PULSE_THETA."""
    walk = PlacementWalk(graph)
    nxt, levels, phases, pulse = walk.nxt, walk.levels, walk.phases, walk.pulse
    records, pulses = [], []
    append = records.append
    for r, r2, theta, phi in steps:
        dst, cur = levels[r], levels[r2]
        hop, first = nxt[cur][dst], len(records)
        while hop != dst:
            a, b = (cur, hop) if cur < hop else (hop, cur)
            pulse(a, b, PULSE_THETA, PULSE_PHI)
            append((a, b, PULSE_THETA, PULSE_PHI, True))
            cur, hop = hop, nxt[hop][dst]
        pulses.append(len(records) - first)
        if dst < cur:
            append((dst, cur, theta, phi + (phases[cur] - phases[dst]), False))
        else:
            append((cur, dst, theta, -phi + (phases[dst] - phases[cur]), False))
        if undo:
            for a, b, _, _, _ in reversed(records[first:-1]):
                pulse(a, b, -PULSE_THETA, PULSE_PHI)
                append((a, b, -PULSE_THETA, PULSE_PHI, True))
    return walk, records, pulses


def assemble(emission: tuple, remaining: np.ndarray, initial: list, cost: float,
             stats: SearchStats | None) -> CompilationResult:
    """The CompilationResult of emit's emission, which it only reads, at
    cost with stats; remaining is the terminal diagonal of the states at
    levels initial.  The walk's stored phases and the diagonal are folded
    into the records: each gate is gates.conjugated of its record under the
    shifts s, bit for bit (the tests hold it to that), phi + (s[high] -
    s[low]) inline in one comprehension; no phi can overflow, as the graph
    stores its phases in [0, 2 pi] and the walk keeps them there.  The final
    graph is built once, with the walk's placement and no stored phase, so
    that the reconstruction identity holds exactly."""
    walk, records, _ = emission
    graph, levels = walk.start, walk.levels
    delta = np.angle(np.diag(remaining))
    dphase = np.array(walk.phases, dtype=np.float64)
    for k in range(len(initial)):
        dphase[levels[k]] += delta[k]
    s, new, gate = (-dphase).tolist(), tuple.__new__, RotationGate
    sequence = tuple([new(gate, (lo, hi, th, ph + (s[hi] - s[lo]), ro))
                      for lo, hi, th, ph, ro in records])
    theta = np.angle(np.exp(1j * (np.array(graph.node_phase)[initial] - dphase[initial])))
    return CompilationResult(sequence, theta, cost, stats, graph,
                             walk.graph((0.0,) * graph.num_levels))
