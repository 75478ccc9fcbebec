"""Independent output oracle for compilation results.

Written from the conventions in PAPER.md with numpy alone; it imports
nothing from quditc, so a defect in the package's own gate matrices,
embeddings or verifier cannot hide a wrong result here.

A result is accepted when

  * every gate acts on a coupled pair of physical levels,
  * matrix(sequence) . E_initial . diag(e^{i theta_res}) == E_final . U up
    to a global phase, with each gate's 2x2 block
        [[cos(t/2),               -i e^{-i phi} sin(t/2)],
         [-i e^{i phi} sin(t/2),   cos(t/2)]]
    on its (low, high) level pair,
  * the cost recomputed from the gates with the paper's formula
        base * dist * (4 t + |mod(t + c/2, c) - c/2|),  t = |theta| / pi,
    (dist = 1, every emitted gate is an adjacent pulse) equals the claimed
    total, and
  * for an adaptive result, that cost is at most the limit factor times the
    fixed-sequence cost.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

RECONSTRUCTION_TOL = 1e-8
COST_REL_TOL = 1e-9
BASE_FACTOR = 1e-4
CALIBRATED_ANGLE = 0.5  # units of pi

_ANCILLA = re.compile(r"^a(\d+)$")


@dataclass(frozen=True)
class Output:
    """What a compiler returned, reduced to plain data."""

    gates: tuple            # (i, j, theta, phi) in application order
    residual_phases: tuple
    num_levels: int
    edges: frozenset        # coupled (low, high) level pairs
    initial_map: dict       # logical state label -> physical level
    final_map: dict
    total_cost: float

    @classmethod
    def of(cls, result) -> "Output":
        """Read a compilation result's fields; nothing of quditc is called."""
        initial, final = result.initial_graph, result.final_graph
        return cls(
            gates=tuple((g.level_low, g.level_high, g.theta, g.phi) for g in result.sequence),
            residual_phases=tuple(float(p) for p in result.residual_phases),
            num_levels=initial.num_levels,
            edges=frozenset(initial.edges),
            initial_map=dict(initial.logical_map),
            final_map=dict(final.logical_map),
            total_cost=result.total_cost,
        )


def embedding(mapping: dict, num_levels: int, dim: int) -> np.ndarray:
    """num_levels x dim matrix whose k-th column is the level holding the
    k-th logical state: computational states numerically, then ancillas."""
    comp = sorted((s for s in mapping if not _ANCILLA.match(s)), key=int)
    anc = sorted((s for s in mapping if _ANCILLA.match(s)), key=lambda s: int(s[1:]))
    order = (comp + anc)[:dim]
    if len(order) < dim:
        raise ValueError(f"placement maps {len(order)} states, unitary needs {dim}")
    emb = np.zeros((num_levels, dim), dtype=np.complex128)
    for k, state in enumerate(order):
        emb[int(mapping[state]), k] = 1.0
    return emb


def reconstruction_error(u: np.ndarray, out: Output) -> float:
    """Max-norm distance between both sides of the reconstruction identity,
    after removing the best global phase."""
    dim = u.shape[0]
    lhs = embedding(out.initial_map, out.num_levels, dim) \
        * np.exp(1j * np.asarray(out.residual_phases, dtype=np.float64))
    for i, j, theta, phi in out.gates:
        if i > j:  # written high -> low: same rotation with phi negated
            i, j, phi = j, i, -phi
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        upper = -1j * np.exp(-1j * phi) * s
        lower = -1j * np.exp(1j * phi) * s
        row_i, row_j = lhs[i].copy(), lhs[j]
        lhs[i] = c * row_i + upper * row_j
        lhs[j] = lower * row_i + c * row_j
    rhs = embedding(out.final_map, out.num_levels, dim) @ u
    overlap = np.vdot(rhs, lhs)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(lhs - phase * rhs)))


def rotation_cost(theta: float) -> float:
    t = abs(theta) / math.pi
    c = CALIBRATED_ANGLE
    return BASE_FACTOR * (4.0 * t + abs((t + c / 2.0) % c - c / 2.0))


def sequence_cost(gates) -> float:
    return sum(rotation_cost(theta) for _, _, theta, _ in gates)


def check(u: np.ndarray, out: Output, limit: float | None = None) -> str | None:
    """None when ``out`` is a correct compilation of ``u`` costing at most
    ``limit`` (if given); otherwise the first reason it is not."""
    for i, j, _, _ in out.gates:
        if (min(i, j), max(i, j)) not in out.edges:
            return f"gate on uncoupled levels ({i},{j})"
    err = reconstruction_error(u, out)
    if not err <= RECONSTRUCTION_TOL:
        return f"reconstruction error {err:.3g}"
    cost = sequence_cost(out.gates)
    if not math.isclose(cost, out.total_cost, rel_tol=COST_REL_TOL, abs_tol=0.0):
        return f"recomputed cost {cost!r} != claimed {out.total_cost!r}"
    if limit is not None and not cost <= limit * (1.0 + COST_REL_TOL):
        return f"cost {cost!r} above limit {limit!r}"
    return None
