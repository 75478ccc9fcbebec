"""Fixed-sequence baseline: reconstruction, the fixed elimination order,
routing compute/uncompute pairing, the gate-free cost bound, and the
in-place ladder against its row-list form."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quditc import adaptive as adaptive_module, qr as qr_module
from quditc._compile import (annihilation_angles, apply_rotation_rows, assemble, compile_levels,
                              emit, emit_rotation, rotation_scratch)
from quditc.adaptive import SearchConfig, adaptive_compile
from quditc.bench import architectures_for_dim, star_architecture
from quditc.clifford import random_cliffords
from quditc.cost import CostParams, pulse_cost, rotation_cost, sequence_cost
from quditc.gates import RotationGate, conjugated, rotation_matrix
from quditc.graph import CouplingGraph, PlacementWalk, _topology, routed_levels
from quditc.linalg import DEFAULT_TOL, max_norm
from quditc.qr import NEGLIGIBLE, ladder, ladder_cost, qr_cost_bound, qr_decompose
from quditc.verify import reconstruction_error, verify_result

from conftest import haar_unitary, make_bridged_graph, unfinished_elimination_input
from test_adaptive import result_digest
from test_graph import gate_bits, random_connected_graph, walk_cases


class TestReconstruction:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_random_unitaries(self, dim):
        edges = frozenset((k, k + 1) for k in range(dim - 1))
        g = CouplingGraph(dim, edges, {str(k): k for k in range(dim)})
        for seed in range(200):
            u = haar_unitary(dim, 1000 * dim + seed)
            result = qr_decompose(u, g)
            err = reconstruction_error(u, result.sequence, result.residual_phases,
                                       result.initial_graph, result.final_graph)
            assert err < 1e-8
            assert result.rotation_count <= dim * (dim - 1) // 2

    def test_identity_input(self, path3):
        result = qr_decompose(np.eye(3, dtype=complex), path3)
        assert result.sequence == ()
        assert np.allclose(result.residual_phases, 0.0)
        assert result.total_cost == 0.0

    def test_diagonal_input_costs_nothing(self, path3):
        u = np.diag(np.exp(1j * np.array([0.4, -1.2, 2.0])))
        result = qr_decompose(u, path3)
        assert result.sequence == ()
        assert result.total_cost == 0.0
        assert verify_result(u, result, 1e-12)

    def test_scrambled_placement_routes_and_uncomputes(self):
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2, "2": 1})
        u = haar_unitary(3, 77)
        result = qr_decompose(u, g)
        assert verify_result(u, result)
        assert result.final_graph.logical_map == g.logical_map
        assert result.pulse_count > 0 and result.pulse_count % 2 == 0


class TestFixedOrder:
    def test_two_level_target_touches_adjacent_pairs(self, ring4):
        # a rotation between the outermost states decomposes through the
        # fixed adjacent-pair ladder (2,3), (1,2), (0,1)
        u = rotation_matrix(RotationGate(0, 3, 2.1, 0.4), 4)
        result = qr_decompose(u, ring4)
        pairs_in_order = []
        for gate in result.sequence:
            pair = (gate.level_low, gate.level_high)
            if not pairs_in_order or pairs_in_order[-1] != pair:
                pairs_in_order.append(pair)
        assert pairs_in_order[:3] == [(2, 3), (1, 2), (0, 1)]
        assert set(pairs_in_order) == {(2, 3), (1, 2), (0, 1)}

    def test_rotation_count_matches_nonzero_subdiagonal(self, path3):
        u = rotation_matrix(RotationGate(0, 1, 1.0, 0.0), 3)
        result = qr_decompose(u, path3)
        # only the (1,0) entry needs annihilating
        assert result.rotation_count == 1


class TestRoutingPairs:
    def test_pulses_come_in_inverse_pairs(self):
        g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}),
                          {"0": 0, "1": 2, "2": 1, "3": 3})
        u = haar_unitary(4, 5)
        result = qr_decompose(u, g)
        pulses = [gate for gate in result.sequence if gate.routing]
        assert sum(np.sign(p.theta) for p in pulses) == 0
        forward = [p for p in pulses if p.theta > 0]
        backward = [p for p in pulses if p.theta < 0]
        assert sorted((p.level_low, p.level_high) for p in forward) == \
            sorted((p.level_low, p.level_high) for p in backward)

    def test_net_mapping_unchanged(self):
        g = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}),
                          {"0": 4, "1": 2, "2": 0, "3": 1, "4": 3})
        u = haar_unitary(5, 6)
        result = qr_decompose(u, g)
        assert result.final_graph.logical_map == g.logical_map
        assert verify_result(u, result)


def reference_replay_cost(steps, rotations, graph, levels, params):
    """The one-way replay's earlier pricing: a routed_levels copy of the
    level list after every routed step."""
    dist = _topology(graph.num_levels, graph.edges)[1]
    pulse = pulse_cost(params)
    one_way = 0.0
    for (r, r2, _, _), rot in zip(steps, rotations):
        n = dist[levels[r]][levels[r2]] - 1
        one_way += rot + n * pulse
        if n:
            levels = routed_levels(graph, levels, r, r2)
    return one_way


def priced_replay(graph, steps, rotations):
    """(one_way, emission): the one-way replay of the steps as
    adaptive._ladder_replay emits and prices it, with the given rotation
    costs.  The ladder and ladder_cost are stood in for, and the fixed form
    priced at inf, so that the replay is the warm start."""
    dim = graph.num_states
    m = np.eye(dim, dtype=complex)
    with mock.patch.object(adaptive_module, "ladder", lambda m0: (steps, m)), \
            mock.patch.object(adaptive_module, "ladder_cost", lambda *args: (math.inf, rotations)):
        _, warm, emission = adaptive_module._ladder_replay(
            m, graph, compile_levels(graph, dim), CostParams(),
            SearchConfig(max_depth=len(steps) + 1))
    assert warm[1:] == (steps, m, False)
    return warm[0], emission


def reference_emission(graph, steps, undo):
    """emit's loop as a call per step and per pulse:
    emit_rotation's records for each step, then with undo each routing
    pulse inverted by walk.pulse, last first.  Returns (records, walk)."""
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


def reference_assemble(records, walk, remaining, initial):
    """assemble's folding with a conjugated call per record: the gates, the
    residual phases and the final logical map."""
    delta = np.angle(np.diag(remaining))
    dphase = np.array(walk.phases, dtype=np.float64)
    for k in range(len(initial)):
        dphase[walk.levels[k]] += delta[k]
    shifts = (-dphase).tolist()
    residual = np.angle(np.exp(1j * (np.array(walk.start.node_phase)[initial] - dphase[initial])))
    return (tuple(conjugated(record, shifts) for record in records), residual,
            walk.graph().logical_map)


# the bridged graph: routes run through its ancilla, and two levels are unmapped
bridged_cases = walk_cases(st.just(make_bridged_graph()))


class TestOnePassEmission:
    """emit and assemble against their call-per-gate forms, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases() | bridged_cases, undo=st.booleans(), all_states=st.booleans(),
           angles=st.lists(st.floats(-7, 7), min_size=12, max_size=12))
    def test_assembly_matches_conjugated(self, case, undo, all_states, angles):
        g, steps = case
        dim = g.num_states if all_states else g.num_computational
        remaining = np.diag(np.exp(1j * np.array(angles[:dim])))
        initial = compile_levels(g, dim)
        result = assemble(emit(g, steps, undo), remaining, initial, 0.0, None)
        sequence, residual, logical_map = reference_assemble(
            *reference_emission(g, steps, undo), remaining, initial)
        assert all(type(gate) is RotationGate for gate in result.sequence)
        assert [gate_bits(x) for x in result.sequence] == [gate_bits(x) for x in sequence]
        assert result.residual_phases.tobytes() == residual.tobytes()
        assert result.final_graph.logical_map == logical_map
        assert result.final_graph.node_phase == (0.0,) * g.num_levels

    @settings(max_examples=40, deadline=None)
    @given(arch=st.sampled_from(architectures_for_dim(5)), seed=st.integers(0, 999),
           phases=st.lists(st.floats(-1.5e308, 1.5e308), min_size=6, max_size=6))
    @example(arch=architectures_for_dim(5)[0], seed=0, phases=[1e9, -1e12, 3e15, 1e9, -1e9, 0.0])
    @example(arch=architectures_for_dim(5)[2], seed=1, phases=[1e8, -1e8, 1e8, -1e8, 1e8, -1e8])
    @example(arch=architectures_for_dim(5)[1], seed=2, phases=[1.5e308, -1.5e308] * 3)
    def test_large_node_phases_verify(self, arch, seed, phases):
        # a graph's phases are stored in [0, 2 pi], reduced exactly, so no
        # emitted phi overflows or loses the phase to rounding
        _, g = arch
        g = CouplingGraph(g.num_levels, g.edges, g.logical_map, g.ancillas,
                          tuple(phases[:g.num_levels]))
        u = haar_unitary(5, seed)
        assert verify_result(u, qr_decompose(u, g))
        assert verify_result(u, adaptive_compile(u, g, SearchConfig(max_nodes=50)))


class TestCostBound:
    def test_identity_is_free(self, path3):
        assert qr_cost_bound(np.eye(3, dtype=complex), path3) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_levels=st.integers(3, 7),
           data=st.data())
    def test_equals_decompose_cost(self, seed, num_levels, data):
        # random connected graphs, permuted placements that may leave levels
        # unmapped, ancillas, and unitaries over either state count
        rng = np.random.default_rng(seed)
        edges = random_connected_graph(num_levels, rng)
        dim = data.draw(st.integers(2, num_levels))
        ancillas = data.draw(st.integers(0, num_levels - dim))
        levels = [int(lv) for lv in rng.permutation(num_levels)]
        states = [str(k) for k in range(dim)] + [f"a{k}" for k in range(ancillas)]
        g = CouplingGraph(num_levels, edges, dict(zip(states, levels)),
                          frozenset(states[dim:]))
        size = data.draw(st.sampled_from([dim, dim + ancillas]))
        u = haar_unitary(size, seed)
        result = qr_decompose(u, g)
        assert qr_cost_bound(u, g) == result.total_cost
        assert verify_result(u, result)

    def test_routed_step_prices_pulses_both_ways(self):
        # states 2 and 3 sit three levels apart: their step pays the rotation,
        # two routing pulses and the two pulses that undo them
        g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}),
                          {"0": 1, "1": 2, "2": 0, "3": 3})
        u = rotation_matrix(RotationGate(2, 3, 1.0, 0.0), 4)
        result = qr_decompose(u, g)
        assert (result.rotation_count, result.pulse_count) == (1, 4)
        assert result.total_cost == pytest.approx(rotation_cost(1.0, 1)
                                                  + 4 * rotation_cost(np.pi, 1), rel=1e-12)
        assert qr_cost_bound(u, g) == result.total_cost

    @settings(max_examples=60, deadline=None)
    @given(case=walk_cases())
    def test_prices_both_emitted_forms(self, case):
        # ladder_cost prices the fixed form (routing undone) and the warm
        # start the one-way replay from the same rotation costs; each is
        # the cost of the gates assemble builds for it
        g, steps = case
        levels = compile_levels(g, g.num_states)
        fixed, rotations = ladder_cost(steps, g, levels, CostParams())
        one_way, replay = priced_replay(g, steps, rotations)

        def emitted_cost(emission):
            eye = np.eye(g.num_states)
            return sequence_cost(assemble(emission, eye, levels, 0.0, None).sequence)

        assert fixed == pytest.approx(emitted_cost(emit(g, steps, True)), rel=1e-12, abs=1e-15)
        assert one_way == pytest.approx(emitted_cost(replay), rel=1e-12, abs=1e-15)

    def test_fixed_cost_replays_no_routing(self, monkeypatch):
        # Only a warm start emits the one-way replay: the fixed back-end
        # emits with undo and its cost bound emits nothing, and a
        # warm-started first solution emits its replay once, without undo.
        emitted = []

        def counted(graph, steps, undo):
            emitted.append(undo)
            return emit(graph, steps, undo)

        monkeypatch.setattr(qr_module, "emit", counted)
        monkeypatch.setattr(adaptive_module, "emit", counted)
        u, g = haar_unitary(7, 1500), star_architecture(7)
        qr_decompose(u, g)
        qr_cost_bound(u, g)
        assert emitted == [True]
        adaptive_compile(u, g, SearchConfig(return_first=True))
        assert emitted == [True, False]

    @settings(max_examples=200, deadline=None)
    @given(case=walk_cases(), costs=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    def test_replay_walk_matches_level_list_copies(self, case, costs):
        # the one-way replay priced from its emission's pulse counts is
        # priced as a fresh routed_levels copy of the level list after every
        # routed step would price it, bit for bit
        g, steps = case
        levels = compile_levels(g, g.num_states)
        rotations = costs[:len(steps)]
        one_way, emission = priced_replay(g, steps, rotations)
        assert len(emission[2]) == len(steps)
        assert one_way.hex() == reference_replay_cost(steps, rotations, g, levels,
                                                      CostParams()).hex()

    def test_diagonal_is_free(self, path3):
        u = np.diag(np.exp(1j * np.array([1.0, 2.0, 3.0])))
        assert qr_cost_bound(u, path3) == 0.0


def reference_rotation_rows(m, r, r2, theta, phi):
    """The kernel's earlier in-place form, with numpy-scalar exponentials."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    a = -1j * np.exp(-1j * phi) * s
    b = -1j * np.exp(1j * phi) * s
    row_r = c * m[r, :] + a * m[r2, :]
    row_r2 = b * m[r, :] + c * m[r2, :]
    m[r, :] = row_r
    m[r2, :] = row_r2


# Clifford-like entries: exact and signed zeros, units and d=7 moduli.
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 7 ** -0.5, -(7 ** -0.5)]),
                   st.floats(-2.0, 2.0))
_angles = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]),
                    st.floats(-4 * math.pi, 4 * math.pi))


class TestRotationKernel:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 8).flatmap(
               lambda d: st.lists(st.lists(st.tuples(_parts, _parts), min_size=d, max_size=d),
                                  min_size=2, max_size=2)),
           theta=st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                           st.floats(0.0, math.pi)),
           phi=_angles)
    # At phi = -0.0 both exponentials are 1+0j, not conjugates of each other.
    @example(rows=[[(-0.0, 0.0)], [(-0.0, 0.0)]], theta=0.0, phi=-0.0)
    def test_bit_identical_to_in_place_form(self, rows, theta, phi):
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
        x, y = m[0].copy(), m[1].copy()
        new_x, new_y = apply_rotation_rows(x, y, math.cos(theta / 2), math.sin(theta / 2), phi,
                                           rotation_scratch(len(x)))
        assert x.tobytes() == m[0].tobytes() and y.tobytes() == m[1].tobytes()
        reference_rotation_rows(m, 0, 1, theta, phi)
        assert new_x.tobytes() == m[0].tobytes()
        assert new_y.tobytes() == m[1].tobytes()


def reference_ladder(m0):
    """The ladder's earlier row-list form: annihilation_angles and
    apply_rotation_rows per step, on a list of m0's rows."""
    rows, steps = list(m0), []
    dim = len(rows)
    scratch = rotation_scratch(dim)
    for c in range(dim):
        for r2 in range(dim - 1, c, -1):
            if abs(rows[r2][c]) < NEGLIGIBLE:
                continue
            r = r2 - 1
            theta, phi = annihilation_angles(rows, r, r2, c)
            steps.append((r, r2, theta, phi))
            rows[r], rows[r2] = apply_rotation_rows(rows[r], rows[r2], math.cos(theta / 2),
                                                    math.sin(theta / 2), phi, scratch)
    return steps, np.array(rows)


def step_bits(steps):
    return [(r, r2, theta.hex(), phi.hex()) for r, r2, theta, phi in steps]


def block_diagonal(dim: int, seed: int) -> np.ndarray:
    """Haar blocks on a random split of the levels: whole columns of exact
    zeros below each block."""
    rng = np.random.default_rng(seed)
    u = np.zeros((dim, dim), dtype=complex)
    start = 0
    while start < dim:
        size = int(rng.integers(1, dim - start + 1))
        u[start:start + size, start:start + size] = \
            haar_unitary(size, int(rng.integers(2**32))) if size > 1 else np.exp(1j * rng.uniform(-4, 4))
        start += size
    return u


def phase_permutation(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.eye(dim)[rng.permutation(dim)] * np.exp(1j * rng.uniform(-4, 4, dim))


class TestLadder:
    def assert_matches_reference(self, u):
        m0 = u.conj().T
        before = m0.tobytes()
        steps, m = ladder(m0)
        ref_steps, ref_m = reference_ladder(m0)
        assert m0.tobytes() == before  # the input is not modified
        assert step_bits(steps) == step_bits(ref_steps)
        assert m.dtype == ref_m.dtype and m.tobytes() == ref_m.tobytes()
        return steps

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_haar_bit_identical_to_row_list_form(self, dim, seed):
        self.assert_matches_reference(haar_unitary(dim, seed))

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
           form=st.sampled_from([phase_permutation, block_diagonal]))
    def test_exact_zeros_bit_identical_to_row_list_form(self, dim, seed, form):
        # a zero entry is skipped, and the step after a skip reads its
        # lower entry from the column start
        self.assert_matches_reference(form(dim, seed))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 31), seed=st.integers(0, 2**32 - 1))
    def test_permuted_blocks_bit_identical_to_row_list_form(self, dim, seed):
        # exact zeros scattered over rows and columns: a front's live pairs
        # split into several runs around its skipped ones
        rng = np.random.default_rng(seed)
        u = block_diagonal(dim, seed)[rng.permutation(dim)][:, rng.permutation(dim)]
        self.assert_matches_reference(u)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([2, 3, 7, 31, 64]), seed=st.integers(0, 2**32 - 1))
    def test_memory_layout_gives_the_same_bits(self, dim, seed):
        # qr_decompose passes u.conj().T, a Fortran-order view; it, a view
        # with negative strides and a strided view of the same matrix give
        # a C-order copy's bits
        m0 = haar_unitary(dim, seed).conj().T
        steps, m = ladder(np.ascontiguousarray(m0))
        padded = np.zeros((2 * dim, 3 * dim), dtype=complex)
        padded[::2, ::3] = m0
        for view in (m0, np.ascontiguousarray(m0[::-1, ::-1])[::-1, ::-1], padded[::2, ::3]):
            view_steps, view_m = ladder(view)
            assert step_bits(view_steps) == step_bits(steps)
            assert view_m.tobytes() == m.tobytes()

    def test_cliffords_bit_identical_to_row_list_form(self):
        skipped = 0
        for dim in (3, 5, 7):
            for u in random_cliffords(dim, 12, 1600 + dim):
                skipped += dim * (dim - 1) // 2 - len(self.assert_matches_reference(u))
        assert skipped > 0  # some of them run the skip


class TestGoldenGates:
    # Digests of the exact gates, residual phases, final graphs and costs,
    # pinned before the ladder was shared with the adaptive back-end.
    def test_clifford_results_unchanged(self):
        results = [qr_decompose(u, g)
                   for dim in (5, 7) for _, g in architectures_for_dim(dim)
                   for u in random_cliffords(dim, 2, 2022)]
        assert result_digest(results) == \
            "971a4cc3a588d675a135d1a7f65d6f572945940887e277a10d34ec44b27df313"

    def test_haar31_results_unchanged(self):
        results = [qr_decompose(haar_unitary(31, seed), g)
                   for _, g in architectures_for_dim(31) for seed in (3101, 3102)]
        assert result_digest(results) == \
            "30cf9f8d2135745b268ef4e01fa6a0566ca1a54fdacfbd1ea1b9c1d8d6caf77d"

    def test_d64_scope_edge_unchanged(self):
        # The documented scope's edge, through both back-ends: the fixed
        # sequence and the accepted warm start, pinned once path-64's
        # placement was scrambled at even d, so that path-64 routes.
        u = haar_unitary(64, 6401)
        archs = architectures_for_dim(64)
        fixed = [qr_decompose(u, g) for _, g in archs]
        assert result_digest(fixed) == \
            "0f3d60193d2535e94691ac81161448f1b9577106eef31dc124d7b07fbf102a80"
        first = [adaptive_compile(u, g, SearchConfig(return_first=True)) for _, g in archs]
        assert all(r.stats.nodes_expanded == 0 for r in first)
        assert result_digest(first) == \
            "7eea9e5785106ee7a059dcf9fedbe59db6e6266953959cbdc1244ca11902cca0"
        assert fixed[0].pulse_count > 0 and first[0].pulse_count > 0  # path-64


class TestErrors:
    def test_non_unitary_rejected(self, path3):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((3, 3), dtype=complex), path3)

    def test_dim_mismatch_rejected(self, path3):
        with pytest.raises(ValueError):
            qr_decompose(np.eye(4, dtype=complex), path3)


class TestEliminationEnd:
    """The ladder checks that its final matrix is diagonal, once, so that
    both back-ends and the cost bound reject the same inputs."""

    def test_input_passes_validation_but_not_elimination(self):
        u = unfinished_elimination_input()
        assert 8e-10 < max_norm(u.conj().T @ u - np.eye(5)) <= DEFAULT_TOL
        with pytest.raises(ValueError, match="did not terminate in a diagonal"):
            ladder(u.conj().T)

    @pytest.mark.parametrize("arch", architectures_for_dim(5), ids=lambda a: a[0])
    def test_every_entry_point_raises(self, arch, no_search_node):
        u, g = unfinished_elimination_input(), arch[1]
        for compile_ in (qr_decompose, qr_cost_bound, adaptive_compile,
                         lambda u, g: adaptive_compile(u, g, SearchConfig(warm_start=False))):
            with pytest.raises(ValueError, match="did not terminate in a diagonal"):
                compile_(u, g)


def test_ancilla_block_compilation(bridged_graph):
    """A unitary over computational plus ancilla states compiles as one
    block matrix (two independent operations in one unitary)."""
    w3 = np.exp(2j * np.pi / 3)
    h3 = np.array([[1, 1, 1], [1, w3, w3.conj()], [1, w3.conj(), w3]]) / np.sqrt(3)
    # 6 mapped states on the bridged graph: 5 computational + 1 ancilla
    a2 = haar_unitary(3, 55)
    u = np.eye(6, dtype=complex)
    u[:3, :3] = h3
    u[3:, 3:] = a2
    result = qr_decompose(u, bridged_graph)
    assert verify_result(u, result)
