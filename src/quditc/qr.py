"""Fixed-sequence baseline decomposition, and the elimination ladder, its
pricing and the one gate emitter that both back-ends run.

Works like a Givens QR elimination with a sequence that is fixed a
priori: columns left to right, sub-diagonal entries bottom to top, each
eliminated with a rotation on the adjacent index pair (r-1, r).  Where
the coupling graph lacks the needed edge, reordering pulses are inserted
and inverted again right after the rotation, so the logical placement is
restored after every step.  A step's pulse count is therefore fixed by
the initial graph, and :func:`ladder_cost` prices the steps, and in the
same pass the adaptive one-way replay, without emitting a gate.
:func:`emit_steps` builds either form's gates on one placement walk.
"""
from __future__ import annotations

import numpy as np

from ._compile import (
    CompilationResult,
    annihilation_angles,
    apply_rotation_rows,
    assemble,
    compile_states,
    emit_rotation,
)
from .cost import CostParams, pulse_cost, rotation_cost
from .graph import CouplingGraph, PlacementWalk, _topology, routed_levels
from .linalg import DEFAULT_TOL, as_matrix, is_diagonal, is_unitary

# The ladder's skip: entries below this are treated as already annihilated
# (its place in the tolerance contract is stated in linalg).
NEGLIGIBLE = 1e-12


def ladder(m0: np.ndarray):
    """Run the fixed elimination on m0, the conjugate transpose of the
    target, as a list of rows (m0 is not modified).  Returns the (r, r2,
    theta, phi) steps in order and the final matrix."""
    rows, steps = list(m0), []
    dim = len(rows)
    for c in range(dim):
        for r2 in range(dim - 1, c, -1):
            if abs(rows[r2][c]) < NEGLIGIBLE:
                continue
            r = r2 - 1
            theta, phi = annihilation_angles(rows, r, r2, c)
            steps.append((r, r2, theta, phi))
            rows[r], rows[r2] = apply_rotation_rows(rows[r], rows[r2], theta, phi)
    return steps, np.array(rows)


def ladder_cost(steps, graph: CouplingGraph, states, params: CostParams):
    """(fixed, one_way): the cost of the steps as emit_steps emits them with
    and without undo.  Fixed is each rotation plus its n pulses, then the n
    inverse pulses one at a time, from the initial placement; one-way moves
    the placement on, as routed_levels moves it.  Each rotation is priced
    once, for both sums."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    start = levels = [graph.logical_map[s] for s in states]
    pulse = pulse_cost(params)
    fixed = one_way = 0.0
    for r, r2, theta, _ in steps:
        rot = rotation_cost(theta, 1, params)
        n = dist[start[r]][start[r2]] - 1
        fixed += rot + n * pulse
        for _ in range(n):
            fixed += pulse
        n = dist[levels[r]][levels[r2]] - 1
        one_way += rot + n * pulse
        if n:
            levels = routed_levels(graph, levels, r, r2)
    return fixed, one_way


def emit_steps(graph: CouplingGraph, steps, undo: bool):
    """(gates, final graph) of the (r, r2, theta, phi) steps on the states
    of graph.state_order(), routed on one placement walk from graph.  With
    undo each rotation's routing is inverted right after it (the fixed
    sequence); without it the placement moves on."""
    walk = PlacementWalk(graph)
    gates = []
    for r, r2, theta, phi in steps:
        step_gates = emit_rotation(walk, r, r2, theta, phi)
        gates.extend(step_gates)
        if undo:
            for pulse in reversed(step_gates[:-1]):
                inv = pulse.inverse()
                gates.append(inv)
                walk.pulse(inv)
    return gates, walk.graph()


def _validated(u) -> np.ndarray:
    """The input of both back-ends as a square complex matrix; ValueError
    unless it is unitary within linalg.DEFAULT_TOL."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError(f"input matrix is not unitary (tol {DEFAULT_TOL:g})")
    return u


def qr_decompose(u, graph: CouplingGraph, params: CostParams = CostParams()) -> CompilationResult:
    u = _validated(u)
    dim = u.shape[0]
    states = compile_states(graph, dim)
    steps, m = ladder(u.conj().T)
    if not is_diagonal(m):
        raise ValueError("elimination did not terminate in a diagonal")

    gates, g = emit_steps(graph, steps, undo=True)
    sequence, theta_res, g_final = assemble(graph, g, gates, m, dim)
    total = ladder_cost(steps, graph, states, params)[0]
    return CompilationResult(sequence, theta_res, total, None, graph, g_final)


def qr_cost_bound(u, graph: CouplingGraph, params: CostParams = CostParams()) -> float:
    """Total cost of the fixed decomposition, priced from the ladder's
    steps without emitting a gate."""
    u = _validated(u)
    states = compile_states(graph, u.shape[0])
    return ladder_cost(ladder(u.conj().T)[0], graph, states, params)[0]
