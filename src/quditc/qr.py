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
from the same rotation costs, on one placement that it moves in place.
:func:`emit_steps` emits either form's gate records on one placement walk,
in one loop over the steps with a call per pulse and none per step.
:func:`ladder` runs the steps as a wavefront: 2d - 3 fronts of rotations
on disjoint adjacent row pairs, one per active column, which give the
sequential order's steps and final matrix bit for bit.  It holds the one
check of an elimination's end, so every entry point rejects an input
whose elimination does not end diagonal.
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
    emit_rotation,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    rotation_coefficients,
)
from .cost import CostParams, pulse_cost, rotation_cost
from .gates import PULSE_PHI, PULSE_THETA
from .graph import CouplingGraph, PlacementWalk, _topology
from .linalg import DEFAULT_TOL, as_matrix, is_diagonal, is_unitary

# The ladder's skip: entries below this are treated as already annihilated
# (its place in the tolerance contract is stated in linalg).
NEGLIGIBLE = 1e-12
_HALF_PI = math.pi / 2


def ladder(m0: np.ndarray):
    """Run the fixed elimination in place on a C-order complex128 copy of
    m0, the conjugate transpose of the target (m0 is not modified).  Returns
    the (r, r2, theta, phi) steps in column order and the final matrix;
    ValueError unless that matrix is diagonal, the one check of an
    elimination's end.

    The steps and the matrix are bit for bit those of annihilation_angles
    and apply_rotation_rows on a list of rows, step after step, though the
    steps run as a wavefront (Sameh and Kuck's schedule of a Givens chain):

      * Column c's step on the adjacent rows (p, p + 1) runs at front
        t = d - 2 - p + 2c, of 2d - 3.  A front's pairs p0, p0 + 2, ...
        (one per active column) touch disjoint rows, and each row still
        meets its rotations in the sequential order, so every step reads
        the entries the sequential ladder would.
      * A front reads the moduli (np.hypot) and phases (np.arctan2) of its
        (p, c) and (p + 1, c) entries at once, on a strided view: they sit
        2d + 1 entries apart in the flat matrix, which d spare entries
        extend so that the last front's view has whole rows.  theta is 2
        math.atan2 of the moduli and the coefficients are
        rotation_coefficients', one step at a time: np.arctan2 can differ
        from math.atan2 in the last ulp.
      * Each run of consecutive live pairs is one contiguous (k, 2, d)
        view, updated with apply_rotation_rows' arithmetic (c x + a y,
        b x + c y): one np.multiply of the (k, 2, 2) coefficients into the
        products, one np.add into the rows.  A skipped pair (its lower
        modulus below NEGLIGIBLE) ends a run, as an identity rotation
        would flip the sign of a zero.
    """
    dim = len(m0)
    width = 2 * dim + 1  # flat distance from entry (p, c) to (p + 2, c + 1)
    flat = np.empty(dim * dim + dim, dtype=np.complex128)
    m = flat[:dim * dim].reshape(dim, dim)
    m[...] = m0
    columns = [[] for _ in range(dim)]
    products = np.empty((dim // 2, 2, 2, dim), dtype=np.complex128)
    hypot, arctan2, multiply, add = np.hypot, np.arctan2, np.multiply, np.add

    def rotate(top, weights):
        # rows top .. top + 2k - 1 as k pairs, by their (k, 2, 2) coefficients
        k = len(weights) // 4
        rows = m[top:top + 2 * k]
        out = products[:k]
        multiply(np.array(weights, dtype=np.complex128).reshape(k, 2, 2, 1),
                 rows.reshape(k, 2, 1, dim), out=out)
        add(out[:, 0], out[:, 1], out=rows.reshape(k, 2, dim))

    for t in range(2 * dim - 3):
        first, last = max(0, t - dim + 2), min(t // 2, dim - 2)  # active columns
        p = top = dim - 2 + 2 * first - t
        start, n = top * dim + first, last - first + 1
        entries = flat[start:start + n * width].reshape(n, width)[:, :dim + 1:dim]
        mods = hypot(entries.real, entries.imag).tolist()
        angs = arctan2(entries.imag, entries.real).tolist()
        weights = []
        for column, (mod_r, mod_r2), (ang_r, ang_r2) in zip(columns[first:], mods, angs):
            if mod_r2 < NEGLIGIBLE:
                if weights:
                    rotate(top, weights)
                    weights = []
                top = p + 2
            else:
                theta = 2.0 * math.atan2(mod_r2, mod_r)
                phi = -(_HALF_PI + ang_r - ang_r2)
                column.append((p, p + 1, theta, phi))
                cos, a, b = rotation_coefficients(theta, phi)
                weights += (cos, b, a, cos)
            p += 2
        if weights:
            rotate(top, weights)
    if not is_diagonal(m):
        raise ValueError("elimination did not terminate in a diagonal")
    return [step for column in columns for step in column], m


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
    current placement.  One placement moves on in place, as
    PlacementWalk.route moves it: a copy of levels (state -> level) and its
    inverse (level -> state, None if unmapped), walked hop by hop along the
    next-hop table; each level on the way hands its state back one hop."""
    nxt, dist = _topology(graph.num_levels, graph.edges)
    pulse = pulse_cost(params)
    levels = list(levels)
    state = [None] * graph.num_levels
    for k, lv in enumerate(levels):
        state[lv] = k
    one_way = 0.0
    for (r, r2, _, _), rot in zip(steps, rotations):
        dst, cur = levels[r], levels[r2]
        n = dist[dst][cur] - 1
        one_way += rot + n * pulse
        if n:
            hop = nxt[cur][dst]
            while hop != dst:
                k = state[cur] = state[hop]
                if k is not None:
                    levels[k] = cur
                cur, hop = hop, nxt[hop][dst]
            state[cur], levels[r2] = r2, cur
    return one_way


def emit_steps(graph: CouplingGraph, steps, undo: bool):
    """(records, walk) of the (r, r2, theta, phi) steps on the states of
    graph.state_order(), routed on one placement walk from graph.  With
    undo each rotation's routing is inverted right after it (the fixed
    sequence); without it the placement moves on.  Each gate is a record
    (low, high, theta, phi, routing); assemble builds the gates and the
    final graph from the records and the walk.

    One loop over the steps, bit for bit emit_rotation's records and walk
    (the tests keep it as the reference): state r2 is pulsed hop by hop
    along walk.nxt towards state r, each hop by walk.pulse, the one pulse
    rule; the rotation is written in stored order (gates.stored_order)
    with the walk's phase shift inline (gates.shifted_phi: the walk's
    phases are floats already); with undo the same hops are pulsed back,
    last first, by -PULSE_THETA."""
    walk = PlacementWalk(graph)
    nxt, levels, phases, pulse = walk.nxt, walk.levels, walk.phases, walk.pulse
    records = []
    append = records.append
    for r, r2, theta, phi in steps:
        dst, cur = levels[r], levels[r2]
        hop, first = nxt[cur][dst], len(records)
        while hop != dst:
            a, b = (cur, hop) if cur < hop else (hop, cur)
            pulse(a, b, PULSE_THETA, PULSE_PHI)
            append((a, b, PULSE_THETA, PULSE_PHI, True))
            cur, hop = hop, nxt[hop][dst]
        if dst < cur:
            append((dst, cur, theta, phi + (phases[cur] - phases[dst]), False))
        else:
            append((cur, dst, theta, -phi + (phases[dst] - phases[cur]), False))
        if undo:
            for a, b, _, _, _ in reversed(records[first:-1]):
                pulse(a, b, -PULSE_THETA, PULSE_PHI)
                append((a, b, -PULSE_THETA, PULSE_PHI, True))
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
