"""Fixed-sequence baseline decomposition, and the elimination ladder and
its pricing, which both back-ends run.

Works like a Givens QR elimination with a sequence that is fixed a
priori: columns left to right, sub-diagonal entries bottom to top, each
eliminated with a rotation on the adjacent index pair (r-1, r).  Where
the coupling graph lacks the needed edge, reordering pulses are inserted
and inverted again right after the rotation, so the logical placement is
restored after every step.  A step's pulse count is therefore fixed by
the initial graph, and :func:`ladder_cost` prices the steps without
emitting a gate, with each step's rotation cost for the adaptive one-way
replay, which ``adaptive._ladder_replay`` prices from its emission.
:func:`_compile.emit` emits either form and :func:`_compile.assemble`
builds its result.
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
    emit,
    emit_rotation,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    rotation_coefficients,
)
from .cost import CostParams, pulse_cost, rotation_costs
from .graph import CouplingGraph, _topology
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
    atan2, cos, sin = math.atan2, math.cos, math.sin

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
        re, im = entries.real, entries.imag
        mods, angs = hypot(re, im).tolist(), arctan2(im, re).tolist()
        weights = []
        for column, (mod_r, mod_r2), (ang_r, ang_r2) in zip(columns[first:], mods, angs):
            if mod_r2 < NEGLIGIBLE:
                if weights:
                    rotate(top, weights)
                    weights = []
                top = p + 2
            else:
                theta = 2.0 * atan2(mod_r2, mod_r)
                phi = -(_HALF_PI + ang_r - ang_r2)
                column.append((p, p + 1, theta, phi))
                c, a, b = rotation_coefficients(cos(theta / 2), sin(theta / 2), phi)
                weights += (c, b, a, c)
            p += 2
        if weights:
            rotate(top, weights)
    if not is_diagonal(m):
        raise ValueError("elimination did not terminate in a diagonal")
    return [step for column in columns for step in column], m


def ladder_cost(steps, graph: CouplingGraph, levels, params: CostParams):
    """(fixed, rotations): the cost of the steps as emitted with undo, and
    each step's rotation cost, priced once here, for the one-way replay.
    Fixed is each rotation plus its n pulses, then the n
    inverse pulses one at a time, from the start levels."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    pulse = pulse_cost(params)
    rotations = rotation_costs([theta for _, _, theta, _ in steps], params)
    fixed = 0.0
    for (r, r2, _, _), rot in zip(steps, rotations):
        n = dist[levels[r]][levels[r2]] - 1
        fixed += rot + n * pulse
        if n:
            for _ in range(n):
                fixed += pulse
    return fixed, rotations


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
    fixed = ladder_cost(steps, graph, levels, params)[0]
    return assemble(emit(graph, steps, True), m, levels, fixed, None)


def qr_cost_bound(u, graph: CouplingGraph, params: CostParams = CostParams()) -> float:
    """Total cost of the fixed decomposition, priced from the ladder's
    steps without emitting a gate; ValueError where qr_decompose raises."""
    u = _validated(u)
    levels = compile_levels(graph, u.shape[0])
    return ladder_cost(ladder(u.conj().T)[0], graph, levels, params)[0]
