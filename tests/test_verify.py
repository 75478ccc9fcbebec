"""Reconstruction checks, including placement-aware sequence documents."""
import numpy as np
import pytest

from quditc.adaptive import SearchConfig, adaptive_compile
from quditc.gates import sequence_to_dict
from quditc.graph import CouplingGraph
from quditc.qr import qr_decompose
from quditc.verify import reconstruction_error, verify_result, verify_sequence_document

from conftest import haar_unitary


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
