"""Coupling graph: distances, routing plans, the placement walk, the
sign-flip rules, and the master simulation property that pins their
semantics."""
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc.gates import (
    RotationGate,
    VirtualZGate,
    conjugated,
    reorder_pulse,
    rotation_matrix,
    sequence_matrix,
)
from quditc.graph import (
    CouplingGraph,
    PlacementWalk,
    _topology,
    apply_graph_rules,
    embedding_matrix,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    plan_routing,
    routed_levels,
    save_graph,
)
from quditc.linalg import max_norm
from quditc.qr import emit_steps


def nx_graph(g: CouplingGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.num_levels))
    h.add_edges_from(g.edges)
    return h


def random_connected_graph(num_levels: int, rng) -> frozenset:
    """Random tree plus a few extra edges."""
    edges = set()
    for node in range(1, num_levels):
        edges.add((int(rng.integers(0, node)), node))
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(num_levels, size=2, replace=False)
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return frozenset(edges)


@st.composite
def connected_edges(draw, max_levels=12):
    """A random connected edge set on 2..max_levels levels, all in use: a
    random tree on shuffled labels plus random extra edges."""
    n = draw(st.integers(2, max_levels))
    label = draw(st.permutations(range(n)))
    edges = {(label[draw(st.integers(0, k - 1))], label[k]) for k in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return frozenset((min(a, b), max(a, b)) for a, b in edges)


def hops(g: CouplingGraph, state_i, state_j) -> int:
    """Edge count of the shortest level path between two states."""
    return len(g.shortest_level_path(g.level_of(state_i), g.level_of(state_j))) - 1


class TestDistance:
    def test_adjacent_pair(self, path3):
        assert path3.shortest_level_path(0, 1) == [0, 1]

    def test_ancilla_bridge(self, bridged_graph):
        # states |2> and |1> connect only through the ancilla level
        assert bridged_graph.shortest_level_path(0, 1) == [0, 3, 1]

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            edges = random_connected_graph(n, rng)
            g = CouplingGraph(n, edges, {str(k): k for k in range(n)})
            oracle = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
            for i in range(n):
                for j in range(n):
                    path = g.shortest_level_path(i, j)
                    assert path[0] == i and path[-1] == j
                    assert len(path) - 1 == oracle[i][j]
                    assert all(g.is_adjacent(a, b) for a, b in zip(path, path[1:]))

    def test_cached_table_is_immutable(self, path3):
        # _topology's cache hands one table to every graph with these edges
        _, dist = _topology(path3.num_levels, path3.edges)
        with pytest.raises(TypeError):
            dist[0][1] = 5
        with pytest.raises(TypeError):
            dist[0] = (0, 5, 5)
        assert path3.shortest_level_path(0, 2) == [0, 1, 2]

    @settings(max_examples=200, deadline=None)
    @given(edges=connected_edges())
    def test_next_hops_give_smallest_shortest_path(self, edges):
        n = 1 + max(b for _, b in edges)
        g = CouplingGraph(n, edges, {str(k): k for k in range(n)})
        h = nx_graph(g)
        for i in range(n):
            for j in range(n):
                # brute force: every shortest path, the smallest as a list
                assert g.shortest_level_path(i, j) == min(nx.all_shortest_paths(h, i, j))

    def test_unmapped_state_rejected(self, path3):
        with pytest.raises(ValueError):
            plan_routing(path3, 0, 5)
        # an unmapped level may be isolated; no path reaches it
        g = CouplingGraph(3, frozenset({(0, 1)}), {"0": 0, "1": 1})
        with pytest.raises(ValueError):
            g.shortest_level_path(0, 2)


class TestPlanRouting:
    def test_already_adjacent(self, path3):
        plan = plan_routing(path3, 0, 1)
        assert plan.pulses == ()
        assert plan.resulting_graph == path3

    def test_pulse_count_is_distance_minus_one(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            edges = random_connected_graph(n, rng)
            g = CouplingGraph(n, edges, {str(k): k for k in range(n)})
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            plan = plan_routing(g, i, j)
            assert len(plan.pulses) == hops(g, i, j) - 1
            gf = plan.resulting_graph
            assert gf.is_adjacent(gf.level_of(i), gf.level_of(j))

    def test_only_the_second_state_moves(self, bridged_graph):
        plan = plan_routing(bridged_graph, "2", "1")
        gf = plan.resulting_graph
        assert gf.level_of("2") == bridged_graph.level_of("2")
        assert gf.level_of("1") != bridged_graph.level_of("1")

    def test_edges_never_change(self, bridged_graph):
        plan = plan_routing(bridged_graph, "3", "0")
        assert plan.resulting_graph.edges == bridged_graph.edges

    def test_mapping_stays_injective(self, bridged_graph):
        plan = plan_routing(bridged_graph, "3", "0")
        levels = list(plan.resulting_graph.logical_map.values())
        assert len(set(levels)) == len(levels)

    def test_pulses_have_default_values(self, ring4):
        g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}), {str(k): k for k in range(4)})
        plan = plan_routing(g, 0, 3)
        assert len(plan.pulses) == 2
        for pulse in plan.pulses:
            assert pulse.routing
            assert pulse.theta == pytest.approx(np.pi)
            assert pulse.phi == pytest.approx(-np.pi / 2)

    def test_lexicographic_tie_break(self):
        # two shortest paths from 3 to 0: 3-1-0 and 3-2-0; the pulse must
        # route through level 1
        g = CouplingGraph(
            4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}), {str(k): k for k in range(4)}
        )
        plan = plan_routing(g, 0, 3)
        assert len(plan.pulses) == 1
        assert (plan.pulses[0].level_low, plan.pulses[0].level_high) == (1, 3)


@st.composite
def routing_cases(draw):
    """A random connected graph of 2-11 levels, some of them unmapped and one
    possibly holding an ancilla; the tracked states (the computational ones
    or every mapped one) and two distinct indices i, j into them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 11))
    mapped = draw(st.integers(2, n))
    ancilla = mapped > 2 and draw(st.booleans())
    labels = [str(k) for k in range(mapped - ancilla)] + ["a0"] * ancilla
    levels = draw(st.permutations(range(n)))[:mapped]
    g = CouplingGraph(n, random_connected_graph(n, rng), dict(zip(labels, levels)),
                      frozenset(labels[mapped - ancilla:]))
    states = g.state_order()
    if draw(st.booleans()):
        states = states[:g.num_computational]
    i, j = draw(st.permutations(range(len(states))))[:2]
    return g, states, i, j


class TestRoutedLevels:
    @settings(max_examples=400, deadline=None)
    @given(case=routing_cases())
    def test_matches_plan_routing(self, case):
        # Content outside the tracked states (an untracked ancilla, an
        # unmapped level) moves with the pulses but is not in the list.
        g, states, i, j = case
        levels = [g.logical_map[s] for s in states]
        plan = plan_routing(g, states[i], states[j])
        assert routed_levels(g, levels, i, j) == \
            [plan.resulting_graph.logical_map[s] for s in states]
        assert levels == [g.logical_map[s] for s in states]  # the input is not moved


def per_pulse_emission(graph: CouplingGraph, steps, undo: bool):
    """Emission with the pulse rule applied one pulse at a time, as a graph
    method once did it: a scan for the states at the two levels, a swap of
    their stored phases, then each level's deposit.  Returns (gates,
    state->level map, node phases)."""
    order = graph.state_order()
    mapping = dict(graph.logical_map)
    phases = list(graph.node_phase)
    gates = []

    def pulse(gate):
        a, b = gate.level_low, gate.level_high
        sign = 1.0 if gate.theta > 0 else -1.0
        dep_a = -gate.phi - sign * math.pi / 2
        dep_b = gate.phi - sign * math.pi / 2
        sa = next((s for s, lv in mapping.items() if lv == a), None)
        sb = next((s for s, lv in mapping.items() if lv == b), None)
        if sa is not None:
            mapping[sa] = b
        if sb is not None:
            mapping[sb] = a
        phases[a], phases[b] = phases[b], phases[a]
        phases[a] = (phases[a] + dep_a) % (2 * math.pi)
        phases[b] = (phases[b] + dep_b) % (2 * math.pi)
        gates.append(gate)

    for r, r2, theta, phi in steps:
        path = graph.shortest_level_path(mapping[order[r2]], mapping[order[r]])
        pulses = [reorder_pulse(prev, nxt) for prev, nxt in zip(path, path[1:-1])]
        for p in pulses:
            pulse(p)
        rot = RotationGate(mapping[order[r]], mapping[order[r2]], theta, phi)
        gates.append(conjugated(rot, phases))
        if undo:
            for p in reversed(pulses):
                pulse(p.inverse())
    return gates, mapping, phases


@st.composite
def walk_cases(draw, graphs=routing_cases().map(lambda case: case[0])):
    """A graph (by default a routing_cases graph) with stored phases in
    [-10, 10] (most of them outside [0, 2 pi)) and a list of steps on its
    mapped states."""
    g = draw(graphs)
    phases = draw(st.lists(st.floats(-10, 10), min_size=g.num_levels, max_size=g.num_levels))
    g = CouplingGraph(g.num_levels, g.edges, g.logical_map, g.ancillas, tuple(phases))
    pair = st.permutations(range(g.num_states)).map(lambda p: tuple(p[:2]))
    steps = draw(st.lists(st.tuples(pair, st.floats(-7, 7), st.floats(-10, 10)), max_size=8))
    return g, [(r, r2, theta, phi) for (r, r2), theta, phi in steps]


def gate_bits(gate: RotationGate):
    return gate.level_low, gate.level_high, gate.theta.hex(), gate.phi.hex(), gate.routing


def record_bits(record):
    """gate_bits of an emitted (low, high, theta, phi, routing) record."""
    low, high, theta, phi, routing = record
    return low, high, theta.hex(), phi.hex(), routing


class TestPlacementWalk:
    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases(), undo=st.booleans())
    def test_matches_per_pulse_rule_bit_for_bit(self, case, undo):
        g, steps = case
        records, walk = emit_steps(g, steps, undo)
        g_final = walk.graph()  # the walk's placement and stored phases
        ref_gates, ref_map, ref_phases = per_pulse_emission(g, steps, undo)
        assert [record_bits(x) for x in records] == [gate_bits(x) for x in ref_gates]
        assert g_final.logical_map == ref_map
        assert [p.hex() for p in g_final.node_phase] == [p.hex() for p in ref_phases]
        if undo:
            assert g_final.logical_map == g.logical_map

    @settings(max_examples=200, deadline=None)
    @given(theta=st.sampled_from([0.0, -0.0, math.pi, -math.pi]) | st.floats(-7, 7),
           phi=st.floats(-10, 10), phases=st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    def test_pulse_deposits_by_the_sign_of_theta(self, theta, phi, phases):
        # the deposits as sign * pi / 2 once wrote them, sign -1 unless theta > 0
        walk = PlacementWalk(CouplingGraph(2, frozenset({(0, 1)}), {"0": 0}, node_phase=phases))
        walk.pulse(0, 1, theta, phi)
        sign = 1.0 if theta > 0 else -1.0
        dep_a, dep_b = -phi - sign * math.pi / 2, phi - sign * math.pi / 2
        expected = [(phases[1] + dep_a) % (2 * math.pi), (phases[0] + dep_b) % (2 * math.pi)]
        assert [p.hex() for p in walk.phases] == [p.hex() for p in expected]
        assert (walk.levels, walk.state) == ([1], [None, 0])

    @settings(max_examples=300, deadline=None)
    @given(case=routing_cases())
    def test_route_walks_the_public_path(self, case):
        # The walk reads the next-hop table, not shortest_level_path; it must
        # pulse exactly that path's hops short of state i, move the tracked
        # states as routed_levels does, and leave j adjacent to i.
        g, states, i, j = case
        walk = PlacementWalk(g)
        levels = walk.levels[:len(states)]
        path = g.shortest_level_path(levels[j], levels[i])
        assert walk.route(i, j) == [(min(a, b), max(a, b)) for a, b in zip(path, path[1:-1])]
        assert walk.levels[:len(states)] == routed_levels(g, levels, i, j)
        assert walk.route(i, j) == []

    @settings(max_examples=200, deadline=None)
    @given(edges=connected_edges(), data=st.data())
    def test_route_between_adjacent_states_is_empty(self, edges, data):
        n = 1 + max(b for _, b in edges)
        placement = data.draw(st.permutations(range(n)))
        phases = data.draw(st.lists(st.floats(-7.0, 7.0), min_size=n, max_size=n))
        g = CouplingGraph(n, edges, {str(k): lv for k, lv in enumerate(placement)},
                          node_phase=tuple(phases))
        walk = PlacementWalk(g)
        before = (list(walk.levels), list(walk.state), list(walk.phases))
        a, b = data.draw(st.sampled_from(sorted(edges)))
        i, j = data.draw(st.permutations([walk.state[a], walk.state[b]]))
        assert walk.route(i, j) == []
        assert (walk.levels, walk.state, walk.phases) == before

    def test_unmapped_state_message(self, path3):
        with pytest.raises(ValueError, match="'5' is not mapped"):
            plan_routing(path3, 0, 5)


def logical_rotation_matrix(role_low: int, role_high: int, theta, phi, dim) -> np.ndarray:
    return rotation_matrix(RotationGate(role_low, role_high, theta, phi), dim)


def intended_operation(raw_gates, graph: CouplingGraph) -> np.ndarray:
    """What a raw reordered sequence is meant to do on the logical states:
    pulses only move content; rotations act on whatever states currently
    sit at their levels; virtual Zs phase the state at their level."""
    order = graph.state_order()
    dim = len(order)
    at = {graph.level_of(s): k for k, s in enumerate(order)}  # level -> state index
    logical = np.eye(dim, dtype=complex)
    for gate in raw_gates:
        if isinstance(gate, VirtualZGate):
            diag = np.ones(dim, dtype=complex)
            diag[at[gate.level]] = np.exp(1j * gate.phi)
            logical = np.diag(diag) @ logical
        elif gate.routing:
            a, b = gate.level_low, gate.level_high
            sa, sb = at.pop(a, None), at.pop(b, None)
            if sa is not None:
                at[b] = sa
            if sb is not None:
                at[a] = sb
        else:
            ra, rb = at[gate.level_low], at[gate.level_high]
            logical = logical_rotation_matrix(ra, rb, gate.theta, gate.phi, dim) @ logical
    return logical


def master_property_error(raw_gates, graph: CouplingGraph) -> float:
    """Simulate the rule-adjusted physical sequence and compare it with the
    intended logical operation composed with the mapping change, up to the
    tracked diagonal."""
    adjusted, g_final = apply_graph_rules(raw_gates, graph)
    order = graph.state_order()
    dim = len(order)
    phys = sequence_matrix(adjusted, graph.num_levels)
    e0 = embedding_matrix(graph, dim)
    ef = embedding_matrix(g_final, dim)
    z0 = np.diag(np.exp(1j * np.array([graph.node_phase[graph.level_of(s)] for s in order])))
    tracked = np.diag(np.exp(1j * np.array(g_final.node_phase)))
    lhs = phys @ e0 @ z0
    rhs = tracked @ ef @ intended_operation(raw_gates, graph)
    return max_norm(lhs - rhs)


def random_raw_sequence(graph: CouplingGraph, rng, length: int):
    """Rotations on random state pairs with routing pulses inserted where
    the pair is not adjacent, plus occasional virtual Zs."""
    order = graph.state_order()
    g = graph
    raw = []
    for _ in range(length):
        if rng.random() < 0.25:
            lvl = int(g.level_of(order[int(rng.integers(len(order)))]))
            raw.append(VirtualZGate(lvl, float(rng.uniform(-np.pi, np.pi))))
            continue
        i, j = (order[int(x)] for x in rng.choice(len(order), size=2, replace=False))
        plan = plan_routing(g, i, j)
        raw.extend(plan.pulses)
        g = plan.resulting_graph
        la, lb = g.level_of(i), g.level_of(j)
        theta = float(rng.uniform(0.2, np.pi - 0.2))
        phi = float(rng.uniform(-np.pi, np.pi))
        raw.append(RotationGate(la, lb, theta, phi))
    return raw


class TestApplyGraphRules:
    def test_trivial_sequence_unchanged(self, path3):
        gates = [RotationGate(0, 1, 0.7, 0.3), RotationGate(1, 2, 1.1, -0.4)]
        adjusted, g = apply_graph_rules(gates, path3)
        assert adjusted == gates
        assert g == path3

    def test_orientation_normalization(self, ring4):
        adjusted, _ = apply_graph_rules([RotationGate(3, 1, 0.9, 0.25)], ring4)
        assert adjusted == [RotationGate(1, 3, 0.9, -0.25)]

    def test_theta_flip_after_pulse_on_shared_level(self, path3):
        # a pulse whose higher level feeds a following gate flips its angle:
        # R(theta, phi') == R(-theta, phi' - pi)
        pulse = reorder_pulse(1, 2)
        gate = RotationGate(0, 2, 0.8, 0.1)
        adjusted, _ = apply_graph_rules([pulse, gate], path3)
        following = adjusted[1]
        mat_adj = rotation_matrix(following, 3)
        mat_flip = rotation_matrix(RotationGate(0, 2, -0.8, following.phi + np.pi), 3)
        assert np.allclose(mat_adj, mat_flip, atol=1e-12)

    def test_virtual_z_recorded_on_graph(self, path3):
        adjusted, g = apply_graph_rules([VirtualZGate(1, 0.6)], path3)
        assert adjusted == []
        assert g.node_phase[1] != 0.0

    @pytest.mark.parametrize("gate,message", [
        (VirtualZGate(3, 0.4), "out of range"),
        (RotationGate(1, 3, 0.7, 0.2), "out of range"),
        (RotationGate(0, 2, math.pi, -math.pi / 2, routing=True), "non-coupled"),
        (RotationGate(0, 1, 0.5 * math.pi, -math.pi / 2, routing=True), "theta"),
    ])
    def test_invalid_gate_rejected(self, path3, gate, message):
        with pytest.raises(ValueError, match=message):
            apply_graph_rules([RotationGate(0, 1, 0.7, 0.3), gate], path3)

    def test_master_property_on_random_routed_sequences(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(4, 6))
            edges = random_connected_graph(n, rng)
            n_states = int(rng.integers(3, n + 1))
            levels = rng.choice(n, size=n_states, replace=False)
            mapping = {str(k): int(levels[k]) for k in range(n_states)}
            phases = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, size=n))
            g = CouplingGraph(n, edges, mapping, node_phase=phases)
            raw = random_raw_sequence(g, rng, int(rng.integers(2, 6)))
            assert master_property_error(raw, g) < 1e-9

    def test_master_property_with_denormalized_gates(self, ring4):
        raw = [reorder_pulse(1, 2), RotationGate(3, 0, 1.2, 0.5)]
        assert master_property_error(raw, ring4) < 1e-12


class TestAncillas:
    def test_mark_then_list(self, path3):
        edges, mapping = frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "a0": 2}
        with pytest.raises(ValueError, match="'a0'"):
            CouplingGraph(3, edges, mapping)  # an unflagged ancilla label
        g = CouplingGraph(3, edges, mapping, ancillas=frozenset({"a0"}))
        assert g.ancillas == {"a0"}
        assert g.num_computational == 2

    def test_unmapped_state_rejected(self, path3):
        with pytest.raises(ValueError):
            CouplingGraph(3, path3.edges, path3.logical_map, ancillas=frozenset({"a7"}))

    def test_ancilla_used_as_routing_bridge(self, bridged_graph):
        plan = plan_routing(bridged_graph, "2", "1")
        pulse = plan.pulses[0]
        assert bridged_graph.level_of("a0") in (pulse.level_low, pulse.level_high)


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, frozenset({(0, 0), (1, 2)}), {"0": 0, "1": 1})

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, frozenset({(0, 1)}), {"0": 0, "1": 0})

    def test_disconnected_mapped_levels_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}), {"0": 0, "1": 3})

    def test_gapped_computational_states_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "2": 1})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_node_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="node_phase"):
            CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2},
                          node_phase=(bad, 0.0, 0.0))

    def test_routing_may_cross_unmapped_levels(self):
        # levels 0 and 2 mapped, middle level unmapped but usable
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2})
        assert hops(g, 0, 1) == 2
        plan = plan_routing(g, 0, 1)
        assert len(plan.pulses) == 1
        assert plan.resulting_graph.level_of("1") == 1


class TestFileFormat:
    def test_round_trip(self, bridged_graph, tmp_path):
        path = tmp_path / "g.json"
        save_graph(bridged_graph, path)
        loaded = load_graph(path)
        assert loaded == bridged_graph

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            graph_from_dict({"levels": 3, "edges": [[0, 1]]})

    def test_rejects_nan_node_phase(self, path3):
        doc = graph_to_dict(path3)
        doc["node_phase"] = [0.0, float("nan"), 0.0]
        with pytest.raises(ValueError, match="node_phase"):
            graph_from_dict(doc)

    def test_dict_shape(self, path3):
        doc = graph_to_dict(path3)
        assert doc["levels"] == 3
        assert doc["logical_map"] == {"0": 0, "1": 1, "2": 2}
        assert doc["ancillas"] == []
