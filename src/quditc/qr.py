"""Fixed-sequence baseline decomposition, and the elimination ladder, its
pricing and the one gate emitter that both back-ends run.

Works like a Givens QR elimination with a sequence that is fixed a
priori: columns left to right, sub-diagonal entries bottom to top, each
eliminated with a rotation on the adjacent index pair (r-1, r).  Where
the coupling graph lacks the needed edge, reordering pulses are inserted
and inverted again right after the rotation, so the logical placement is
restored after every step.  A step's pulse count is therefore fixed by
the initial graph, and :func:`ladder_cost` prices the steps without
emitting a gate; :func:`replay_cost` prices the adaptive one-way replay
from the same rotation costs.
:func:`emit_steps` emits either form's gate records on one placement walk.
:func:`ladder` holds the one check of an elimination's end, so every
entry point rejects an input whose elimination does not end diagonal.
"""
from __future__ import annotations

import math

import numpy as np

from ._compile import (
    CompilationResult,
    annihilation_angles,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    apply_rotation_rows,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    assemble,
    compile_levels,
    emit_rotation,
    rotation_coefficients,
    rotation_scratch,
)
from .cost import CostParams, pulse_cost, rotation_cost
from .graph import CouplingGraph, PlacementWalk, _topology, routed_levels
from .linalg import DEFAULT_TOL, as_matrix, is_diagonal, is_unitary

# The ladder's skip: entries below this are treated as already annihilated
# (its place in the tolerance contract is stated in linalg).
NEGLIGIBLE = 1e-12
_HALF_PI = math.pi / 2


def ladder(m0: np.ndarray):
    """Run the fixed elimination in place on a complex128 copy of m0, the
    conjugate transpose of the target (m0 is not modified).  Returns the
    (r, r2, theta, phi) steps in order and the final matrix; ValueError
    unless that matrix is diagonal, the one check of an elimination's end.

    The steps and the matrix are bit for bit those of annihilation_angles
    and apply_rotation_rows on a list of rows:

      * Column c's moduli (np.hypot) and phases (np.arctan2) are read once,
        when the column starts, into one running column.  A step on rows
        (r, r2) leaves row r2 done with the column and a new pivot in row r,
        the next step's lower entry, so it writes only that pivot's abs and
        scalar np.arctan2 back into the running column.  theta is 2
        math.atan2 of the moduli, one step at a time: np.arctan2 can differ
        from math.atan2 in the last ulp.
      * A step updates the two adjacent rows (r, r + 1) in place, with
        apply_rotation_rows' arithmetic (c x + a y, b x + c y) and buffers:
        one np.multiply of the 2x2 coefficients into the products, one
        np.add into the rows.
    """
    m = np.array(m0, dtype=np.complex128)
    dim = len(m)
    steps = []
    # the kernel's coefficients and products; the rows need no gathering
    coef, weights, _, _, _, products, from_x, from_y = rotation_scratch(dim)
    pairs = [m[r:r + 2] for r in range(dim - 1)]  # rows (r, r + 1), written in place
    spread = [pair[:, None] for pair in pairs]    # the same rows as (2, 1, dim)
    arctan2, multiply, add, entry = np.arctan2, np.multiply, np.add, m.item
    for c in range(dim - 1):
        column = m[:, c]
        mods = np.hypot(column.real, column.imag).tolist()
        angs = arctan2(column.imag, column.real).tolist()
        for r2 in range(dim - 1, c, -1):
            if mods[r2] < NEGLIGIBLE:
                continue
            r = r2 - 1
            theta = 2.0 * math.atan2(mods[r2], mods[r])
            phi = -(_HALF_PI + angs[r] - angs[r2])
            steps.append((r, r2, theta, phi))
            cos, a, b = rotation_coefficients(theta, phi)
            weights[0], weights[1], weights[2], weights[3] = cos, b, a, cos
            multiply(coef, spread[r], out=products)
            add(from_x, from_y, out=pairs[r])
            pivot = entry(r, c)
            mods[r] = abs(pivot)
            angs[r] = float(arctan2(pivot.imag, pivot.real))
    if not is_diagonal(m):
        raise ValueError("elimination did not terminate in a diagonal")
    return steps, m


def ladder_cost(steps, graph: CouplingGraph, levels, params: CostParams):
    """(fixed, rotations): the cost of the steps as emit_steps emits them
    with undo, and each step's rotation cost, priced once here, for
    replay_cost.  Fixed is each rotation plus its n pulses, then the n
    inverse pulses one at a time, from the start levels."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    pulse = pulse_cost(params)
    rotations = [rotation_cost(theta, 1, params) for _, _, theta, _ in steps]
    fixed = 0.0
    for (r, r2, _, _), rot in zip(steps, rotations):
        n = dist[levels[r]][levels[r2]] - 1
        fixed += rot + n * pulse
        for _ in range(n):
            fixed += pulse
    return fixed, rotations


def replay_cost(steps, rotations, graph: CouplingGraph, levels, params: CostParams) -> float:
    """The cost of the steps as emit_steps emits them without undo, from
    ladder_cost's rotation costs: each rotation plus its n pulses at the
    current placement, which moves on as routed_levels moves a copy."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    pulse = pulse_cost(params)
    one_way = 0.0
    for (r, r2, _, _), rot in zip(steps, rotations):
        n = dist[levels[r]][levels[r2]] - 1
        one_way += rot + n * pulse
        if n:
            levels = routed_levels(graph, levels, r, r2)
    return one_way


def emit_steps(graph: CouplingGraph, steps, undo: bool):
    """(records, walk) of the (r, r2, theta, phi) steps on the states of
    graph.state_order(), routed on one placement walk from graph.  With
    undo each rotation's routing is inverted right after it (the fixed
    sequence); without it the placement moves on.  Each gate is an
    emit_rotation record (low, high, theta, phi, routing); assemble builds
    the gates and the final graph from the records and the walk."""
    walk = PlacementWalk(graph)
    records = []
    for r, r2, theta, phi in steps:
        step = emit_rotation(walk, r, r2, theta, phi)
        records += step
        if undo:
            for low, high, p_theta, p_phi, _ in reversed(step[:-1]):
                walk.pulse(low, high, -p_theta, p_phi)
                records.append((low, high, -p_theta, p_phi, True))
    return records, walk


def _validated(u) -> np.ndarray:
    """The input of both back-ends as a square complex matrix; ValueError
    unless it is unitary within linalg.DEFAULT_TOL."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError(f"input matrix is not unitary (tol {DEFAULT_TOL:g})")
    return u


def qr_decompose(u, graph: CouplingGraph, params: CostParams = CostParams()) -> CompilationResult:
    u = _validated(u)
    levels = compile_levels(graph, u.shape[0])
    steps, m = ladder(u.conj().T)
    records, walk = emit_steps(graph, steps, undo=True)
    sequence, theta_res, g_final = assemble(walk, records, m, levels)
    total = ladder_cost(steps, graph, levels, params)[0]
    return CompilationResult(sequence, theta_res, total, None, graph, g_final)


def qr_cost_bound(u, graph: CouplingGraph, params: CostParams = CostParams()) -> float:
    """Total cost of the fixed decomposition, priced from the ladder's
    steps without emitting a gate; ValueError where qr_decompose raises."""
    u = _validated(u)
    levels = compile_levels(graph, u.shape[0])
    return ladder_cost(ladder(u.conj().T)[0], graph, levels, params)[0]
