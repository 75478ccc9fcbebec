"""Fixed-sequence baseline: reconstruction, the fixed elimination order,
routing compute/uncompute pairing, and the gate-free cost bound."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quditc._compile import apply_rotation_rows
from quditc.bench import architectures_for_dim
from quditc.clifford import random_cliffords
from quditc.cost import rotation_cost
from quditc.gates import RotationGate, rotation_matrix
from quditc.graph import CouplingGraph
from quditc.qr import qr_cost_bound, qr_decompose
from quditc.verify import reconstruction_error, verify_result

from conftest import haar_unitary
from test_adaptive import result_digest
from test_graph import random_connected_graph


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
        new_x, new_y = apply_rotation_rows(x, y, theta, phi)
        assert x.tobytes() == m[0].tobytes() and y.tobytes() == m[1].tobytes()
        reference_rotation_rows(m, 0, 1, theta, phi)
        assert new_x.tobytes() == m[0].tobytes()
        assert new_y.tobytes() == m[1].tobytes()


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


class TestErrors:
    def test_non_unitary_rejected(self, path3):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((3, 3), dtype=complex), path3)

    def test_dim_mismatch_rejected(self, path3):
        with pytest.raises(ValueError):
            qr_decompose(np.eye(4, dtype=complex), path3)


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
