"""Reconstruction checks, including placement-aware sequence documents."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc.adaptive import SearchConfig, adaptive_compile
from quditc.gates import RotationGate, VirtualZGate, sequence_matrix, sequence_to_dict
from quditc.graph import CouplingGraph, placement_embedding
from quditc.qr import qr_decompose
from quditc.verify import (
    reconstruction_error,
    reconstruction_sides,
    verify_result,
    verify_sequence_document,
)

from conftest import haar_unitary
from test_graph import random_raw_sequence


def test_reconstruction_error_is_small_for_valid_results(path3):
    u = haar_unitary(3, 12)
    result = qr_decompose(u, path3)
    err = reconstruction_error(u, result.sequence, result.residual_phases,
                               result.initial_graph, result.final_graph)
    assert err < 1e-12


def test_verify_rejects_wrong_unitary(path3):
    u = haar_unitary(3, 12)
    other = haar_unitary(3, 13)
    result = qr_decompose(u, path3)
    assert verify_result(u, result)
    assert not verify_result(other, result)


def test_routed_sequence_document_round_trip():
    # adaptive routing leaves a different final placement; the document's
    # maps must carry enough to verify it
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2, "2": 1})
    u = haar_unitary(3, 55)
    result = adaptive_compile(u, g, SearchConfig(max_nodes=4000))
    assert result.final_graph.logical_map != result.initial_graph.logical_map
    doc = sequence_to_dict(
        result.sequence, 3, result.residual_phases,
        {"initial_map": dict(result.initial_graph.logical_map),
         "final_map": dict(result.final_graph.logical_map)},
    )
    assert verify_sequence_document(u, doc, 1e-8)
    assert not verify_sequence_document(haar_unitary(3, 56), doc, 1e-8)


def test_high_to_low_records_verify_like_low_to_high():
    # A record written i > j is the rotation written j -> i with phi negated.
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2})
    u = haar_unitary(3, 91)
    result = qr_decompose(u, g)
    doc = sequence_to_dict(result.sequence, 3, result.residual_phases)
    flipped = copy.deepcopy(doc)
    for rec in flipped["gates"]:
        rec["i"], rec["j"], rec["phi"] = rec["j"], rec["i"], -rec["phi"]
    assert all(rec["i"] > rec["j"] for rec in flipped["gates"])
    unflipped_phi = copy.deepcopy(flipped)
    for rec, orig in zip(unflipped_phi["gates"], doc["gates"]):
        rec["phi"] = orig["phi"]
    for target, expected in ((u, True), (haar_unitary(3, 92), False)):
        assert verify_sequence_document(target, doc, 1e-8) == expected
        assert verify_sequence_document(target, flipped, 1e-8) == expected
    assert not verify_sequence_document(u, unflipped_phi, 1e-8)


def test_document_with_tampered_phase_fails():
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2})
    u = haar_unitary(3, 77)
    result = qr_decompose(u, g)
    phases = np.array(result.residual_phases)
    phases[1] += 0.5
    doc = sequence_to_dict(result.sequence, 3, phases)
    assert not verify_sequence_document(u, doc, 1e-8)


@pytest.mark.parametrize("maps", [
    {"final_map": {"0": 0, "1": 1, "2": 3}},    # level past the last one
    {"initial_map": [0, 1, 2]},                 # not a state->level object
    {"initial_map": {"0": -1, "1": 1, "2": 2}},  # negative level
    {"final_map": {"0": 0, "1": 0, "2": 2}},    # two states on one level
])
def test_malformed_placement_rejected(maps):
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2})
    u = haar_unitary(3, 77)
    result = qr_decompose(u, g)
    doc = sequence_to_dict(result.sequence, 3, result.residual_phases, maps)
    with pytest.raises(ValueError):
        verify_sequence_document(u, doc, 1e-8)


@st.composite
def phased_graphs(draw):
    """A random connected graph on 4-6 levels holding d = levels - 2
    computational states, the ancilla a0 and one unmapped level, with a
    nonzero phase stored on every level."""
    n = draw(st.integers(4, 6))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}  # a random tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    levels = draw(st.permutations(range(n)))
    mapping = {str(k): levels[k] for k in range(n - 2)}
    mapping["a0"] = levels[n - 2]  # levels[n - 1] stays unmapped
    phase = st.floats(-math.pi, math.pi).filter(lambda p: p != 0.0)
    phases = draw(st.lists(phase, min_size=n, max_size=n))
    return CouplingGraph(n, frozenset(edges), mapping, frozenset({"a0"}), tuple(phases))


@settings(max_examples=100, deadline=None)
@given(graph=phased_graphs(), seed=st.integers(0, 2**16), with_ancilla=st.booleans())
def test_phased_graphs_reconstruct_under_both_back_ends(graph, seed, with_ancilla):
    # Every emitted rotation absorbs the stored phases of arbitrary levels.
    # The default limit: where the one-way warm start costs more than it,
    # the fixed sequence is the warm start, so a 50-node search still ends
    # in a result.
    dim = graph.num_states if with_ancilla else graph.num_computational
    u = haar_unitary(dim, seed)
    assert verify_result(u, qr_decompose(u, graph))
    config = SearchConfig(max_nodes=50)
    assert verify_result(u, adaptive_compile(u, graph, config))


@settings(max_examples=100, deadline=None)
@given(graph=phased_graphs(), seed=st.integers(0, 2**16), with_ancilla=st.booleans(),
       length=st.integers(0, 8))
def test_row_sides_match_sequence_matrix(graph, seed, with_ancilla, length):
    # The sides applied row by row equal the sides built from the full
    # sequence matrix, on raw routed sequences with virtual Z gates.
    rng = np.random.default_rng(seed)
    dim = graph.num_states if with_ancilla else graph.num_computational
    u = haar_unitary(dim, seed)
    raw = random_raw_sequence(graph, rng, length)
    phases = rng.uniform(-math.pi, math.pi, dim)
    placement = graph.logical_map
    lhs, rhs = reconstruction_sides(u, raw, graph.num_levels, phases, placement, placement)
    n = graph.num_levels
    ref = sequence_matrix(raw, n) @ placement_embedding(placement, n, dim) \
        @ np.diag(np.exp(1j * phases))
    assert np.max(np.abs(lhs - ref)) <= 1e-12
    assert np.array_equal(rhs, placement_embedding(placement, n, dim) @ u)


@pytest.mark.parametrize("gate", [RotationGate(1, 2, 0.5, 0.0), VirtualZGate(2, 0.5)])
def test_out_of_range_gate_level_rejected(gate):
    placement = {"0": 0, "1": 1}
    with pytest.raises(ValueError, match="out of range"):
        reconstruction_sides(np.eye(2), [gate], 2, [0.0, 0.0], placement, placement)
