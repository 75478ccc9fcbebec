"""Corrupted unitary, graph and sequence documents raise ValueError only,
which the CLI reports as invalid input (exit 2); any other exception
would end in a traceback."""
import copy
import json
import math
from contextlib import suppress

import pytest
from hypothesis import given, settings, strategies as st

from quditc.adaptive import adaptive_compile
from quditc.bench import path_architecture
from quditc.gates import sequence_to_dict
from quditc.graph import CouplingGraph, graph_from_dict, graph_to_dict
from quditc.linalg import load_unitary
from quditc.qr import qr_decompose
from quditc.verify import verify_sequence_document

from conftest import haar_unitary

U = haar_unitary(3, 77)

# What a corruption writes.  Integers stay small because a document may
# name any level count, and the compiler allocates dense tables of that size.
JUNK = [None, True, False, -1, 0, 1, 2, 5, 0.5, -1.5, math.inf, -math.inf, math.nan,
        "", "x", "a0", "1", [], [0], [[0, 1]], [None], {}, {"0": 0}]


def _locations(node, prefix=()):
    """The path of every value in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _locations(child, prefix + (key,))


@st.composite
def corrupted(draw, doc):
    """A copy of doc with one to three values deleted or replaced by junk."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        if not path:
            doc = junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    return doc


def _unitary_doc():
    return {"dim": 3, "entries": [[[z.real, z.imag] for z in row] for row in U]}


def _graph_doc():
    graph = CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}),
                          {"0": 1, "1": 0, "2": 3, "a0": 2}, frozenset({"a0"}),
                          (0.1, -0.2, 0.3, 0.0))
    return graph_to_dict(graph)


def _sequence_doc():
    result = adaptive_compile(U, path_architecture(3))
    doc = sequence_to_dict(result.sequence, 3, result.residual_phases, {
        "initial_map": dict(result.initial_graph.logical_map),
        "final_map": dict(result.final_graph.logical_map),
    })
    doc["gates"].append({"type": "Z", "i": 0, "phi": 0.0})
    return doc


def test_uncorrupted_documents_are_accepted(tmp_path):
    (tmp_path / "u.json").write_text(json.dumps(_unitary_doc()))
    qr_decompose(load_unitary(tmp_path / "u.json"), path_architecture(3))
    qr_decompose(U, graph_from_dict(_graph_doc()))
    assert verify_sequence_document(U, _sequence_doc())


@pytest.fixture(scope="module")
def unitary_file(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "u.json"


@settings(max_examples=300, deadline=None)
@given(doc=corrupted(_unitary_doc()))
def test_corrupted_unitary_raises_value_error_only(unitary_file, doc):
    unitary_file.write_text(json.dumps(doc))
    with suppress(ValueError):
        qr_decompose(load_unitary(unitary_file), path_architecture(3))


@settings(max_examples=300, deadline=None)
@given(doc=corrupted(_graph_doc()))
def test_corrupted_graph_raises_value_error_only(doc):
    with suppress(ValueError):
        qr_decompose(U, graph_from_dict(doc))


@settings(max_examples=300, deadline=None)
@given(doc=corrupted(_sequence_doc()))
def test_corrupted_sequence_raises_value_error_only(doc):
    with suppress(ValueError):
        verify_sequence_document(U, doc)
