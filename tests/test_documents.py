"""Corrupted unitary, graph and sequence documents raise ValueError only,
which the CLI reports as invalid input (exit 2); any other exception
would end in a traceback."""
import copy
import json
import math
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc.adaptive import adaptive_compile
from quditc.bench import architectures_for_dim, path_architecture
from quditc.gates import RotationGate, VirtualZGate, sequence_from_dict, sequence_to_dict
from quditc.graph import CouplingGraph, graph_from_dict, graph_to_dict
from quditc.linalg import MAX_LEVELS, load_unitary, save_unitary
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


def _path_graph_doc(levels: int) -> dict:
    return {"levels": levels, "edges": [[k, k + 1] for k in range(levels - 1)],
            "logical_map": {"0": 0, "1": 1, "2": 2}}


class TestSizeCap:
    """Every size a document names is checked against MAX_LEVELS; the cap
    itself is accepted."""

    def test_every_shipped_architecture_in_scope_loads(self):
        for _, graph in architectures_for_dim(64):  # bridge-64 has 65 levels
            assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_graph_levels(self):
        assert graph_from_dict(_path_graph_doc(MAX_LEVELS)).num_levels == MAX_LEVELS
        with pytest.raises(ValueError, match="cap"):
            graph_from_dict(_path_graph_doc(MAX_LEVELS + 1))

    def test_sequence_dim(self):
        assert sequence_from_dict({"dim": MAX_LEVELS, "gates": []})[1] == MAX_LEVELS
        with pytest.raises(ValueError, match="cap"):
            sequence_from_dict({"dim": MAX_LEVELS + 1, "gates": []})

    def test_unitary_dim(self, tmp_path):
        save_unitary(np.eye(MAX_LEVELS), tmp_path / "u.json")
        assert load_unitary(tmp_path / "u.json").shape == (MAX_LEVELS, MAX_LEVELS)
        save_unitary(np.eye(MAX_LEVELS + 1), tmp_path / "u.json")
        with pytest.raises(ValueError, match="cap"):
            load_unitary(tmp_path / "u.json")


class TestIntegerFields:
    """A level, edge end, placement level or dim is an integer: a fractional
    number, a boolean or a string is rejected, not rounded down by int()."""

    BAD = [3.9, 1.2, True, False, "1"]

    def test_fractional_graph_document(self):
        doc = {"levels": 3.9, "edges": [[0, 1.7], [1, 2]],
               "logical_map": {"0": 0, "1": 1.2, "2": 2}}
        with pytest.raises(ValueError, match="expected an integer"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["levels", "edge", "logical_map"])
    def test_graph_fields(self, field, bad):
        doc = {"levels": 3, "edges": [[0, 1], [1, 2]], "logical_map": {"0": 0, "1": 1, "2": 2}}
        if field == "levels":
            doc["levels"] = bad
        elif field == "edge":
            doc["edges"][0][1] = bad
        else:
            doc["logical_map"]["1"] = bad
        with pytest.raises(ValueError, match="expected an integer"):
            graph_from_dict(doc)

    def test_integral_floats_are_integers(self):
        doc = {"levels": 3.0, "edges": [[0, 1.0], [1, 2]],
               "logical_map": {"0": 0, "1": 1.0, "2": 2}}
        assert graph_from_dict(doc) == graph_from_dict(_path_graph_doc(3))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["dim", "i", "j"])
    def test_sequence_fields(self, field, bad):
        gate = {"type": "R", "i": 0, "j": 1, "theta": 0.0, "phi": 0.0}
        doc = {"dim": 2, "gates": [gate]}
        (doc if field == "dim" else gate)[field] = bad
        with pytest.raises(ValueError, match="expected an integer"):
            sequence_from_dict(doc)

    @pytest.mark.parametrize("bad", BAD)
    def test_virtual_z_level(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            sequence_from_dict({"dim": 2, "gates": [{"type": "Z", "i": bad, "phi": 0.0}]})

    def test_fractional_unitary_dim(self, tmp_path):
        save_unitary(np.eye(3), tmp_path / "u.json")
        doc = json.loads((tmp_path / "u.json").read_text())
        doc["dim"] = 3.5
        (tmp_path / "u.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected an integer"):
            load_unitary(tmp_path / "u.json")


class TestRealFields:
    """A phase, angle or unitary entry is a real number and a routing flag
    a JSON boolean: float() and bool() would read a boolean or a string."""

    BAD = [True, False, "0", "1.5"]

    @pytest.mark.parametrize("bad", BAD)
    def test_unitary_entry(self, tmp_path, bad):
        save_unitary(np.eye(2), tmp_path / "u.json")
        doc = json.loads((tmp_path / "u.json").read_text())
        doc["entries"][1][0][1] = bad
        (tmp_path / "u.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected a real number"):
            load_unitary(tmp_path / "u.json")

    @pytest.mark.parametrize("bad", BAD)
    def test_node_phase(self, bad):
        doc = {**_path_graph_doc(3), "node_phase": [0.0, bad, 0.0]}
        with pytest.raises(ValueError, match="expected a real number"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("field", ["theta", "phi", "z_phi", "virtual_phases"])
    def test_sequence_fields(self, field, bad):
        gates = [{"type": "R", "i": 0, "j": 1, "theta": 0.5, "phi": 0.0},
                 {"type": "Z", "i": 1, "phi": 0.0}]
        doc = {"dim": 2, "gates": gates, "virtual_phases": [0.0, 0.0]}
        if field == "z_phi":
            gates[1]["phi"] = bad
        elif field == "virtual_phases":
            doc["virtual_phases"][1] = bad
        else:
            gates[0][field] = bad
        with pytest.raises(ValueError, match="expected a real number"):
            sequence_from_dict(doc)

    @pytest.mark.parametrize("bad", ["false", "true", 0, 1, None])
    def test_routing_is_a_boolean(self, bad):
        gate = {"type": "R", "i": 0, "j": 1, "theta": 0.5, "phi": 0.0, "routing": bad}
        with pytest.raises(ValueError, match="routing"):
            sequence_from_dict({"dim": 2, "gates": [gate]})

    def test_integers_and_booleans_where_they_belong(self, tmp_path):
        gates = [{"type": "R", "i": 0, "j": 1, "theta": 1, "phi": 0, "routing": True},
                 {"type": "R", "i": 0, "j": 1, "theta": 1, "phi": 0, "routing": False}]
        parsed, _, phases = sequence_from_dict({"dim": 2, "gates": gates,
                                                "virtual_phases": [0, 1]})
        assert [g.routing for g in parsed] == [True, False]
        assert parsed[0].theta == 1.0 and phases.tolist() == [0.0, 1.0]
        doc = {**_path_graph_doc(3), "node_phase": [0, 1, 0]}
        assert graph_from_dict(doc).node_phase == (0.0, 1.0, 0.0)
        (tmp_path / "u.json").write_text(json.dumps(
            {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}))
        assert np.array_equal(load_unitary(tmp_path / "u.json"), np.diag([1, 1j]))


class TestPlainNumbers:
    """A document holds Python ints and floats, whatever number types its
    gates or graph were built from, so it can be written as JSON and read
    back to the same value."""

    @staticmethod
    def round_trip(gates, dim):
        doc = json.loads(json.dumps(sequence_to_dict(gates, dim)))
        parsed, parsed_dim, _ = sequence_from_dict(doc)
        assert parsed_dim == dim and parsed == gates
        plain = (str, int, float, bool)
        assert all(type(v) in plain for rec in doc["gates"] for v in rec.values())

    def test_float32_angle(self):
        self.round_trip([RotationGate(0, 1, np.float32(0.3), 0.1)], 2)

    def test_int64_levels(self):
        self.round_trip([RotationGate(np.int64(0), np.int64(2), 0.3, np.float64(0.1), True)],
                        np.int64(3))

    def test_int64_virtual_z_level(self):
        self.round_trip([VirtualZGate(np.int64(1), 0.2)], 2)

    def test_int64_graph(self):
        g = CouplingGraph(np.int64(3), frozenset({(np.int64(0), np.int64(1)), (1, 2)}),
                          {"0": 0, "1": 1, "2": 2}, node_phase=(np.float32(0.5), 0.0, 1))
        doc = json.loads(json.dumps(graph_to_dict(g)))
        assert graph_from_dict(doc) == g
        assert type(doc["levels"]) is int
        assert all(type(lv) is int for edge in doc["edges"] for lv in edge)
        assert all(type(p) is float for p in doc["node_phase"])
