"""Fixed-sequence baseline decomposition, and the elimination ladder that
both back-ends run.

Works like a Givens QR elimination with a sequence that is fixed a
priori: columns left to right, sub-diagonal entries bottom to top, each
eliminated with a rotation on the adjacent index pair (r-1, r).  Where
the coupling graph lacks the needed edge, reordering pulses are inserted
and inverted again right after the rotation, so the logical placement is
restored after every step.  A step's pulse count is therefore fixed by
the initial graph, and :func:`ladder_cost` prices the steps without
emitting a gate.
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
from .graph import CouplingGraph, _topology
from .linalg import DEFAULT_TOL, as_matrix, is_diagonal, is_unitary

# The ladder's skip: entries below this are treated as already annihilated
# (its place in the tolerance contract is stated in linalg).
NEGLIGIBLE = 1e-12


def ladder(m0: np.ndarray):
    """Run the fixed elimination on a copy of m0, the conjugate transpose
    of the target.  Returns the (r, r2, theta, phi) steps in order and the
    final matrix."""
    m = m0.copy()
    steps = []
    dim = m.shape[0]
    for c in range(dim):
        for r2 in range(dim - 1, c, -1):
            if abs(m[r2, c]) < NEGLIGIBLE:
                continue
            r = r2 - 1
            theta, phi = annihilation_angles(m, r, r2, c)
            steps.append((r, r2, theta, phi))
            m[r], m[r2] = apply_rotation_rows(m[r], m[r2], theta, phi)
    return steps, m


def ladder_cost(steps, graph: CouplingGraph, states, params: CostParams) -> float:
    """Cost of the steps with routing undone: each rotation plus its n
    pulses, then the n inverse pulses one at a time, as emitted."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    levels = [graph.logical_map[s] for s in states]
    pulse = pulse_cost(params)
    total = 0.0
    for r, r2, theta, _ in steps:
        n = dist[levels[r]][levels[r2]] - 1
        total += rotation_cost(theta, 1, params) + n * pulse
        for _ in range(n):
            total += pulse
    return total


def emit_fixed(graph: CouplingGraph, states, steps):
    """(gates, final graph) of the steps as the fixed sequence: each
    rotation's routing is undone right after it, as ladder_cost prices."""
    g = graph
    gates = []
    for r, r2, theta, phi in steps:
        step_gates, g = emit_rotation(g, states[r], states[r2], theta, phi)
        gates.extend(step_gates)
        for pulse in reversed(step_gates[:-1]):
            inv = pulse.inverse()
            gates.append(inv)
            g = g.apply_pulse(inv)
    return gates, g


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

    gates, g = emit_fixed(graph, states, steps)
    sequence, theta_res, g_final = assemble(graph, g, gates, m, dim)
    total = ladder_cost(steps, graph, states, params)
    return CompilationResult(sequence, theta_res, total, None, graph, g_final)


def qr_cost_bound(u, graph: CouplingGraph, params: CostParams = CostParams()) -> float:
    """Total cost of the fixed decomposition, priced from the ladder's
    steps without emitting a gate."""
    u = _validated(u)
    states = compile_states(graph, u.shape[0])
    return ladder_cost(ladder(u.conj().T)[0], graph, states, params)
