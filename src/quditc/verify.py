"""Reconstruction checks for compilation results and sequence documents.

A result reconstructs its target when

    matrix(sequence) . E_initial . diag(e^{i theta}) == E_final . U

up to a global phase, where E_initial / E_final embed the logical states
onto their physical levels before and after the sequence.  With no
routing (or with all routing undone) and an identity placement this is
the plain  matrix(sequence) . diag(e^{i theta}) == U.

:func:`reconstruction_sides` builds both sides from plain state->level
placements, so a result (placements from its graphs) and a sequence
document (placements from its maps) are checked by the same code.
"""
from __future__ import annotations

import numpy as np

from .gates import sequence_from_dict, sequence_matrix
from .graph import CouplingGraph, placement_embedding
from .linalg import VERIFY_TOL, equal_up_to_global_phase, max_norm


def reconstruction_sides(u: np.ndarray, sequence, num_levels: int, residual_phases,
                         initial_map, final_map) -> tuple[np.ndarray, np.ndarray]:
    """(left side, right side) of the reconstruction identity.  Raises
    ValueError for a placement that is not one-to-one onto the levels."""
    dim = u.shape[0]
    phys = sequence_matrix(sequence, num_levels)
    lhs = phys @ placement_embedding(initial_map, num_levels, dim) \
        @ np.diag(np.exp(1j * np.asarray(residual_phases)))
    rhs = placement_embedding(final_map, num_levels, dim) @ u
    return lhs, rhs


def reconstruction_error(u: np.ndarray, sequence, residual_phases,
                         initial_graph: CouplingGraph,
                         final_graph: CouplingGraph) -> float:
    lhs, rhs = reconstruction_sides(u, sequence, initial_graph.num_levels, residual_phases,
                                    initial_graph.logical_map, final_graph.logical_map)
    return max_norm(lhs - rhs)


def verify_result(u: np.ndarray, result, tol: float = VERIFY_TOL) -> bool:
    """Check a CompilationResult against its target unitary."""
    initial, final = result.initial_graph, result.final_graph
    sides = reconstruction_sides(u, result.sequence, initial.num_levels,
                                 result.residual_phases, initial.logical_map,
                                 final.logical_map)
    return equal_up_to_global_phase(*sides, tol)


def verify_sequence_document(u: np.ndarray, doc: dict, tol: float = VERIFY_TOL) -> bool:
    """Check a sequence file document against a target unitary.

    The document's "dim" is the physical level count; optional
    "initial_map"/"final_map" give the state placements (identity is
    assumed when absent, which requires dim == the unitary's dimension).
    A malformed placement raises ValueError.
    """
    gates, num_levels, phases = sequence_from_dict(doc)
    dim = u.shape[0]
    if phases is None:
        phases = np.zeros(dim)
    if len(phases) != dim:
        raise ValueError(f"virtual_phases length {len(phases)} != unitary dim {dim}")
    ident = {str(k): k for k in range(dim)}
    init_map = doc.get("initial_map", ident)
    final_map = doc.get("final_map", init_map)
    sides = reconstruction_sides(u, gates, num_levels, phases, init_map, final_map)
    return equal_up_to_global_phase(*sides, tol)
