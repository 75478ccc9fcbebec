"""Adaptive search: pruning soundness, reconstruction, and optimality
against exhaustive enumeration on small instances."""
import hashlib
import importlib.util
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc import adaptive as adaptive_module, cost as cost_module
from quditc._compile import annihilation_angles, compile_states
from quditc.adaptive import NoSolutionError, SearchConfig, _Search, adaptive_compile
from quditc.bench import architectures_for_dim, path_architecture, star_architecture
from quditc.clifford import random_cliffords
from quditc.cost import CostParams, pulse_cost, rotation_cost, sequence_cost
from quditc.gates import RotationGate, rotation_matrix
from quditc.graph import CouplingGraph, _topology, graph_to_dict, plan_routing
from quditc.linalg import DEFAULT_TOL, is_diagonal
from quditc.qr import qr_cost_bound, qr_decompose
from quditc.verify import verify_result

from conftest import haar_unitary


def exhaustive_min_cost(u, graph, params=CostParams(), tol=DEFAULT_TOL, max_depth=4):
    """Enumerate the full child space (no pruning) to a depth bound and
    return the cheapest complete decomposition's cost.  One tolerance, as
    in the search, is both the candidate filter and the terminal test."""
    dim = u.shape[0]
    states = graph.state_order()[:dim]
    pulse = rotation_cost(math.pi, 1, params)
    best = [math.inf]

    def walk(m, g, cost, depth):
        if is_diagonal(m, tol):
            best[0] = min(best[0], cost)
            return
        if depth == max_depth:
            return
        for c in range(dim):
            for r in range(c, dim):
                for r2 in range(r + 1, dim):
                    if abs(m[r2, c]) <= tol:
                        continue
                    theta = 2 * math.atan2(abs(m[r2, c]), abs(m[r, c]))
                    phi = -(math.pi / 2 + np.angle(m[r, c]) - np.angle(m[r2, c]))
                    plan = plan_routing(g, states[r], states[r2])
                    rot = rotation_matrix(RotationGate(r, r2, theta, float(phi)), dim)
                    step = len(plan.pulses) * pulse + rotation_cost(theta, 1, params)
                    walk(rot @ m, plan.resulting_graph, cost + step, depth + 1)

    walk(u.conj().T, graph, 0.0, 0)
    return best[0]


class TestDiagonalFastPath:
    def test_empty_sequence_zero_cost(self, path3):
        u = np.diag(np.exp(1j * np.array([0.3, -0.6, 1.9])))
        result = adaptive_compile(u, path3)
        assert result.sequence == ()
        assert result.total_cost == 0.0
        assert result.stats.nodes_expanded == 0
        assert verify_result(u, result, 1e-12)


class TestDirectCouplingWins:
    def test_single_gate_beats_fixed_ladder(self, ring4):
        # the 0-3 edge admits a one-gate decomposition of a 0<->3 rotation
        u = rotation_matrix(RotationGate(0, 3, 2.1, 0.4), 4)
        result = adaptive_compile(u, ring4, SearchConfig(max_nodes=50_000))
        assert result.rotation_count == 1
        assert result.pulse_count == 0
        assert result.total_cost < qr_cost_bound(u, ring4)
        assert verify_result(u, result)


class TestCostLimit:
    @pytest.mark.parametrize("mapping", [
        {"0": 0, "1": 1, "2": 2},
        {"0": 0, "1": 2, "2": 1},
        {"0": 1, "1": 0, "2": 2},
    ])
    def test_within_limit_and_reconstructs(self, mapping):
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), mapping)
        for seed in range(10):
            u = haar_unitary(3, 300 + seed)
            bound = qr_cost_bound(u, g)
            result = adaptive_compile(u, g, SearchConfig(max_nodes=20_000))
            assert result.total_cost <= 1.1 * bound + 1e-15
            assert result.total_cost <= result.stats.cost_limit
            assert verify_result(u, result)

    def test_absolute_limit_respected(self, path3):
        u = haar_unitary(3, 41)
        generous = adaptive_compile(u, path3, SearchConfig(max_nodes=20_000))
        limit = generous.total_cost * 1.001
        result = adaptive_compile(
            u, path3, SearchConfig(cost_limit=limit, max_nodes=20_000)
        )
        assert result.total_cost < limit

    def test_unreachable_limit_raises(self, path3):
        u = haar_unitary(3, 42)
        with pytest.raises(NoSolutionError) as info:
            adaptive_compile(u, path3, SearchConfig(cost_limit=1e-9, max_nodes=1000))
        assert info.value.stats.nodes_expanded >= 1
        assert info.value.stats.solutions_found == 0


class TestSmallInstanceOptimality:
    def test_matches_exhaustive_enumeration(self, path3):
        cfg = SearchConfig(max_nodes=10_000_000, max_depth=4)
        for seed in range(8):
            u = haar_unitary(3, 500 + seed)
            oracle = exhaustive_min_cost(u, path3)
            result = adaptive_compile(u, path3, cfg)
            assert result.total_cost == pytest.approx(oracle, abs=1e-9)


class TestSearchControls:
    def test_return_first_stops_early(self, path3):
        u = haar_unitary(3, 71)
        first = adaptive_compile(u, path3, SearchConfig(return_first=True, max_nodes=100_000))
        full = adaptive_compile(u, path3, SearchConfig(max_nodes=100_000))
        assert first.stats.solutions_found == 1
        assert first.stats.nodes_expanded <= full.stats.nodes_expanded
        assert full.total_cost <= first.total_cost + 1e-15
        assert verify_result(u, first)

    def test_budget_exhaustion_returns_incumbent(self):
        g = CouplingGraph(5, frozenset({(k, k + 1) for k in range(4)}),
                          {str(k): (2 * k + 1) % 5 for k in range(5)})
        u = haar_unitary(5, 83)
        small = adaptive_compile(u, g, SearchConfig(max_nodes=400))
        assert small.stats.nodes_expanded <= 400
        assert verify_result(u, small)

    def test_determinism(self, path3):
        u = haar_unitary(3, 99)
        a = adaptive_compile(u, path3, SearchConfig(max_nodes=5000))
        b = adaptive_compile(u, path3, SearchConfig(max_nodes=5000))
        assert a.sequence == b.sequence
        assert a.total_cost == b.total_cost
        assert np.array_equal(a.residual_phases, b.residual_phases)

    def test_warm_start_guarantees_solution_on_tight_instances(self):
        # identity placement on a cycle: the baseline is cheap, so the raw
        # search often exhausts its budget before completing a path
        from quditc.bench import bridge_architecture

        g = bridge_architecture(5)
        u = haar_unitary(5, 1234)
        seeded = adaptive_compile(u, g, SearchConfig(max_nodes=500))
        assert verify_result(u, seeded)
        assert seeded.total_cost <= 1.1 * qr_cost_bound(u, g) + 1e-15

    @pytest.mark.parametrize("max_nodes", [50, 500])
    def test_fixed_sequence_is_warm_start_when_replay_exceeds_limit(self, max_nodes):
        # The one-way replay of the ladder costs 1.196x the fixed sequence
        # here, over the 1.1x limit; the fixed sequence itself fits it.
        g = CouplingGraph(6, frozenset({(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)}),
                          {"0": 0, "1": 2, "2": 1, "3": 3, "a0": 4}, frozenset({"a0"}))
        u = haar_unitary(4, 3)
        fixed = qr_decompose(u, g)
        first = adaptive_compile(u, g, SearchConfig(return_first=True))
        assert first.sequence == fixed.sequence
        assert first.total_cost == fixed.total_cost
        result = adaptive_compile(u, g, SearchConfig(max_nodes=max_nodes))
        assert verify_result(u, result)
        assert result.total_cost <= fixed.total_cost

    def test_without_warm_start_still_searches(self, path3):
        u = haar_unitary(3, 99)
        cold = adaptive_compile(u, path3, SearchConfig(max_nodes=5000, warm_start=False))
        warm = adaptive_compile(u, path3, SearchConfig(max_nodes=5000))
        assert verify_result(u, cold)
        assert warm.total_cost <= cold.total_cost + 1e-15

    def test_stats_populated(self, path3):
        u = haar_unitary(3, 7)
        result = adaptive_compile(u, path3, SearchConfig(max_nodes=5000))
        assert result.stats.nodes_expanded >= 1
        assert result.stats.max_depth >= 1
        assert result.stats.wall_time_ms > 0
        assert result.stats.cost_limit > 0


class TestStopReason:
    def test_diagonal_input_is_exhausted(self, path3):
        u = np.diag(np.exp(1j * np.array([0.3, -0.6, 1.9])))
        stats = adaptive_compile(u, path3).stats
        assert (stats.stop_reason, stats.beat_warm_start) == ("exhausted", False)

    def test_exhausted(self, path3):
        result = adaptive_compile(haar_unitary(3, 71), path3, SearchConfig(max_nodes=100_000))
        assert result.stats.stop_reason == "exhausted"
        assert result.stats.nodes_expanded < 100_000

    def test_node_budget(self, path3):
        result = adaptive_compile(haar_unitary(3, 71), path3, SearchConfig(max_nodes=3))
        assert result.stats.stop_reason == "node_budget"
        assert result.stats.nodes_expanded == 3

    def test_first_solution(self, path3):
        u = haar_unitary(3, 71)
        warm = adaptive_compile(u, path3, SearchConfig(return_first=True))
        assert warm.stats.stop_reason == "first_solution"
        assert warm.stats.nodes_expanded == 0 and not warm.stats.beat_warm_start
        cold = adaptive_compile(u, path3, SearchConfig(return_first=True, warm_start=False))
        assert cold.stats.stop_reason == "first_solution"
        assert cold.stats.nodes_expanded > 0 and not cold.stats.beat_warm_start

    def test_no_solution_error_carries_reason(self, path3):
        with pytest.raises(NoSolutionError) as info:
            adaptive_compile(haar_unitary(3, 42), path3, SearchConfig(cost_limit=1e-9))
        assert info.value.stats.stop_reason == "exhausted"
        with pytest.raises(NoSolutionError) as info:
            adaptive_compile(haar_unitary(5, 83), path_architecture(5),
                             SearchConfig(warm_start=False, max_nodes=2))
        assert info.value.stats.stop_reason == "node_budget"

    def test_budget_bound_search_beats_warm_start_on_path(self):
        # Column-then-cost order: the first children a node tries are cheap
        # rotations, not a pivot into the diagonal row that needs routing,
        # so a 1000-node budget improves on the ladder replay it started from.
        g = path_architecture(7)
        for u in random_cliffords(7, 3, 2022):
            warm = adaptive_compile(u, g, SearchConfig(return_first=True))
            result = adaptive_compile(u, g, SearchConfig(max_nodes=1000))
            assert result.stats.stop_reason == "node_budget"
            assert result.stats.beat_warm_start
            assert result.total_cost < warm.total_cost


class TestHardInputs:
    def test_permutation_like_unitaries(self):
        # zero diagonals push the annihilation angle to its pi limit
        for dim in (3, 4, 5):
            shift = np.zeros((dim, dim), dtype=complex)
            for k in range(dim):
                shift[(k + 1) % dim, k] = np.exp(0.3j * k)
            edges = frozenset((k, k + 1) for k in range(dim - 1))
            g = CouplingGraph(dim, edges, {str(k): k for k in range(dim)})
            for u in (shift, shift @ shift):
                result = adaptive_compile(u, g, SearchConfig(max_nodes=4000))
                assert verify_result(u, result)

    def test_preloaded_node_phases_fold_into_residual(self):
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2},
                          node_phase=(0.4, -1.1, 2.2))
        u = haar_unitary(3, 321)
        result = adaptive_compile(u, g, SearchConfig(max_nodes=4000))
        assert verify_result(u, result, 1e-10)

    def test_ancilla_block_unitary(self, bridged_graph):
        # one matrix acting on the computational states and the ancilla block
        w3 = np.exp(2j * np.pi / 3)
        h3 = np.array([[1, 1, 1], [1, w3, w3.conj()], [1, w3.conj(), w3]]) / np.sqrt(3)
        u = np.eye(6, dtype=complex)
        u[:3, :3] = h3
        u[3:, 3:] = haar_unitary(3, 9)
        result = adaptive_compile(u, bridged_graph, SearchConfig(max_nodes=6000))
        assert verify_result(u, result)

    @pytest.mark.parametrize("theta", [3e-9, 1e-8, 2e-8])
    def test_entry_near_zero_tolerance_is_rotated(self, theta):
        # R(0,1; theta) leaves entries of modulus ~theta/2, just above
        # DEFAULT_TOL: the search must rotate them, since they keep a node
        # from being terminal.  A candidate cut-off above the terminal test's
        # made such a node a dead end (NoSolutionError cold, the ladder warm).
        triangle = CouplingGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}),
                                 {str(k): k for k in range(3)})
        u = rotation_matrix(RotationGate(0, 1, theta, 0.3), 3) \
            @ rotation_matrix(RotationGate(1, 2, 1.0, 0.2), 3)
        cold = adaptive_compile(u, triangle, SearchConfig(warm_start=False))
        assert verify_result(u, cold)
        # Every edge is present, so the ladder's path is one of the search's
        # own, and an exhaustive warm-started search ends at the cold optimum.
        warm = adaptive_compile(u, triangle)
        assert verify_result(u, warm)
        assert warm.total_cost == cold.total_cost


class TestRoutedSearch:
    def test_star_graph(self):
        g = CouplingGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}),
                          {str(k): k for k in range(4)})
        for seed in range(5):
            u = haar_unitary(4, 700 + seed)
            result = adaptive_compile(u, g, SearchConfig(max_nodes=10_000))
            assert verify_result(u, result)
            assert result.total_cost <= 1.1 * qr_cost_bound(u, g) + 1e-15

    def test_ancilla_bridge_graph(self, bridged_graph):
        u = haar_unitary(5, 800)
        result = adaptive_compile(u, bridged_graph, SearchConfig(max_nodes=10_000))
        assert verify_result(u, result)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(4, 7), arch=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           perm=st.randoms(use_true_random=False), max_nodes=st.integers(50, 300))
    def test_priced_cost_is_emitted_cost(self, dim, arch, seed, perm, max_nodes):
        # The search prices routing from its level list; the gates come from
        # replaying plan_routing.  Any drift between the two shows here.
        g = architectures_for_dim(dim)[arch][1]
        levels = list(range(g.num_levels))
        perm.shuffle(levels)
        g = CouplingGraph(g.num_levels, g.edges,
                          {s: levels[lv] for s, lv in g.logical_map.items()}, g.ancillas)
        u = haar_unitary(dim, seed)
        result = adaptive_compile(u, g, SearchConfig(max_nodes=max_nodes))
        assert result.total_cost == pytest.approx(sequence_cost(result.sequence), rel=1e-12)
        assert verify_result(u, result)


class TestErrors:
    def test_non_unitary_rejected(self, path3):
        with pytest.raises(ValueError):
            adaptive_compile(np.ones((3, 3), dtype=complex), path3)

    def test_dim_mismatch_rejected(self, path3):
        with pytest.raises(ValueError):
            adaptive_compile(np.eye(5, dtype=complex), path3)

    @pytest.mark.parametrize("fields", [
        {"cost_limit_factor": math.nan}, {"cost_limit": math.nan},
        {"cost_limit": 1.0, "cost_limit_factor": math.nan}, {"cost_limit_factor": 0.5},
        {"max_nodes": -1}, {"max_depth": 0}, {"max_depth": -2},
    ])
    def test_invalid_config_rejected(self, fields):
        with pytest.raises(ValueError):
            SearchConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"cost_limit_factor": math.inf}, {"cost_limit": math.inf},
        {"max_nodes": 0}, {"max_depth": 1},
    ])
    def test_limits_at_the_boundary_accepted(self, fields):
        SearchConfig(**fields)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestDeepSearch:
    def test_first_solution_search_needs_no_recursion(self):
        # A cold first-solution search on a d=16 star descends about 120
        # levels, past a recursion limit only 60 frames above the caller.
        u = haar_unitary(16, 16)
        g = star_architecture(16)
        cfg = SearchConfig(warm_start=False, return_first=True)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 60)
        try:
            result = adaptive_compile(u, g, cfg)
        finally:
            sys.setrecursionlimit(saved)
        assert result.stats.max_depth > 60
        assert result.stats.solutions_found == 1
        assert verify_result(u, result)

    def test_top_of_scope_first_solution(self):
        # d = 48 sits at the top of the documented scope: the cold search
        # descends straight to a solution, one rotation per level.
        u = haar_unitary(48, 48)
        result = adaptive_compile(u, star_architecture(48),
                                  SearchConfig(warm_start=False, return_first=True))
        assert result.stats.nodes_expanded == 1128
        assert result.stats.max_depth == 1127
        assert verify_result(u, result)

    def test_deep_search_memory(self):
        # Frames share their parent's matrix, moduli and phase rows and hold
        # a path instead of a gate list, and a cold search prices its
        # candidates lazily, so a depth-495 search stays small.
        u = haar_unitary(32, 32)
        g = star_architecture(32)
        cfg = SearchConfig(warm_start=False, return_first=True)
        tracemalloc.start()
        try:
            result = adaptive_compile(u, g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.max_depth == 495
        assert peak < 8 * 2**20


def reference_children(search, m, graph, cost):
    """The node's children from the scalar per-candidate calls, column by
    column: zero-tolerance filter, annihilation angles, routed step cost,
    limit filter.  Within a column they stay in (row, row2) order, or are
    sorted by step cost while the search holds an incumbent."""
    states = search.states
    dim = len(states)
    limit = search.current_limit()
    _, dist = _topology(graph.num_levels, graph.edges)
    children = []
    for c in range(dim):
        column = []
        for r in range(c, dim):
            for r2 in range(r + 1, dim):
                if abs(m[r2, c]) <= DEFAULT_TOL:
                    continue
                theta, phi = annihilation_angles(m, r, r2, c)
                hops = dist[graph.level_of(states[r])][graph.level_of(states[r2])] - 1
                step = hops * pulse_cost(search.params) \
                    + rotation_cost(theta, 1, search.params)
                if cost + step >= limit:
                    continue
                column.append((step, c, r, r2, theta, phi))
        if search.best is not None:
            column.sort()
        children.extend(column)
    return children


@st.composite
def scoring_cases(draw):
    kind = draw(st.sampled_from(["haar", "clifford", "placement"]))
    # random_cliffords needs a prime dimension
    dim = draw(st.sampled_from([3, 5, 7]) if kind == "clifford" else st.integers(3, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "clifford":
        u = random_cliffords(dim, 1, seed)[0]
    else:
        u = haar_unitary(dim, seed)
    if kind == "placement":
        levels = draw(st.permutations(range(dim)))
        g = path_architecture(dim)
        g = CouplingGraph(dim, g.edges, {str(k): lv for k, lv in enumerate(levels)})
    else:
        g = draw(st.sampled_from(architectures_for_dim(dim)))[1]
    # a cost so far that leaves room for some children but not all
    spent = draw(st.floats(0.0, 0.9)) * qr_cost_bound(u, g)
    return u, g, spent


class TestNodeScoring:
    @pytest.mark.parametrize("incumbent", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(case=scoring_cases())
    def test_matches_scalar_reference(self, incumbent, case):
        # Without an incumbent (a cold search before its first solution)
        # the children come in triple order; with one, each column is
        # sorted by step cost.
        u, g, spent = case
        m = u.conj().T.copy()
        limit = 1.1 * qr_cost_bound(u, g)
        search = _Search(compile_states(g, m.shape[0]), SearchConfig(), CostParams(), limit)
        if incumbent:
            search.best = (limit, None, None)
        children = list(search.children(*search.prepare(m, g), spent))
        expected = reference_children(search, m, g, spent)
        # tuples compare float for float: exact equality, no tolerance
        assert children == expected

    @settings(max_examples=60, deadline=None)
    @given(case=scoring_cases(), cut=st.floats(0.0, 1.0), after=st.integers(1, 6))
    def test_generator_rechecks_improved_incumbent(self, case, cut, after):
        # The incumbent improves while the caller searches the subtree of
        # the `after`-th child; the children still to come must be exactly
        # the score-time list rechecked against the improved limit.  The
        # search starts with an incumbent at the limit, so every column is
        # sorted by step cost.
        u, g, spent = case
        m = u.conj().T.copy()
        limit = 1.1 * qr_cost_bound(u, g)
        search = _Search(compile_states(g, m.shape[0]), SearchConfig(), CostParams(), limit)
        search.best = (limit, None, None)
        improved = spent + cut * (limit - spent)
        listed = reference_children(search, m, g, spent)
        expected = listed[:after] + [ch for ch in listed[after:] if spent + ch[0] < improved]
        yielded = []
        for child in search.children(*search.prepare(m, g), spent):
            yielded.append(child)
            if len(yielded) == after:
                search.best = (improved, None, None)
        assert yielded == expected


    def test_cold_root_prices_lazily(self, temp_cost_model):
        # Before the first incumbent a node prices its candidates in (r, r2)
        # order and stops at the first one it yields.
        priced = []

        def counting(theta, dist, p):
            priced.append(theta)
            return cost_module._calibrated_linear(theta, dist, p)

        params = temp_cost_model("lazy-pricing-test", counting)
        g = path_architecture(5)
        g = CouplingGraph(5, g.edges, {str(k): (2 * k + 1) % 5 for k in range(5)})
        rejected = 0
        for seed in range(4):
            u = haar_unitary(5, 1300 + seed)
            m = u.conj().T.copy()
            limit = 1.1 * qr_cost_bound(u, g)
            states = compile_states(g, 5)
            reference = _Search(states, SearchConfig(), CostParams(), limit)
            # Past limit - pulse, a candidate that needs routing is rejected.
            for spent in (0.0, limit - pulse_cost(params)):
                listed = reference_children(reference, m, g, spent)
                thetas = [annihilation_angles(m, r, r2, c)[0]
                          for c in range(5) for r in range(c, 5) for r2 in range(r + 1, 5)
                          if abs(m[r2, c]) > DEFAULT_TOL]
                expected = thetas[:thetas.index(listed[0][4]) + 1]
                search = _Search(states, SearchConfig(), params, limit)
                priced.clear()
                children = search.children(*search.prepare(m, g), spent)
                assert next(children) == listed[0]
                assert priced == expected
                rejected += len(expected) - 1
        assert rejected > 0


class TestCustomCostModel:
    def test_search_scores_with_selected_model(self, flat_cost_model):
        # A flat per-gate cost a hundred times below the default model's: its
        # optimum minimises the gate count, and a scorer that priced children
        # with the default model would prune every one of them.
        params = flat_cost_model
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2, "2": 1})
        cfg = SearchConfig(max_nodes=10_000_000, max_depth=4, warm_start=False)
        for seed in range(4):
            u = haar_unitary(3, 1100 + seed)
            result = adaptive_compile(u, g, cfg, params)
            assert result.total_cost == pytest.approx(
                sequence_cost(result.sequence, params), rel=1e-12)
            assert result.total_cost == pytest.approx(
                exhaustive_min_cost(u, g, params), abs=1e-12)
            assert result.total_cost < result.stats.cost_limit
            assert verify_result(u, result)

    def test_each_angle_priced_once_per_search(self, temp_cost_model):
        calls = Counter()

        def counting(theta, dist, p):
            calls[theta] += 1
            return cost_module._calibrated_linear(theta, dist, p)

        params = temp_cost_model("counting-test", counting)
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2, "2": 1})
        cfg = SearchConfig(max_nodes=10_000_000, max_depth=4)
        for seed in range(4):
            u = haar_unitary(3, 1200 + seed)
            m0 = u.conj().T.copy()
            search = _Search(compile_states(g, 3), cfg, params, 1.1 * qr_cost_bound(u, g))
            calls.clear()
            search.run(m0, g)
            assert calls and max(calls.values()) == 1
            result = adaptive_compile(u, g, cfg, params)
            assert result.total_cost == pytest.approx(
                exhaustive_min_cost(u, g, params), abs=1e-12)


def result_digest(results) -> str:
    """SHA-256 over the exact gates, residual phases, final graph and cost
    of each result."""
    h = hashlib.sha256()
    for res in results:
        seq = [[g.level_low, g.level_high, g.theta.hex(), g.phi.hex(), g.routing]
               for g in res.sequence]
        doc = {"sequence": seq,
               "residual_phases": [float(p).hex() for p in res.residual_phases],
               "final_graph": graph_to_dict(res.final_graph),
               "total_cost": res.total_cost.hex()}
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


class TestGoldenGates:
    def test_budget_bound_results_unchanged(self):
        # Nine of these twelve incumbents come from the search and three
        # from the warm-start ladder; the digest pins every gate bit for bit.
        results = []
        for dim in (5, 7):
            for _, g in architectures_for_dim(dim):
                for u in random_cliffords(dim, 2, 2022):
                    results.append(adaptive_compile(u, g, SearchConfig(max_nodes=300)))
        assert result_digest(results) == \
            "834c37a6e40c7f6002938c130662976eee74d3d6cd8d4bd18bca26ecbca0f493"


def _benchmark_tracing():
    """benchmark/tracing.py, loaded by path: it is not a package module."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("quditc_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkCounts:
    def test_warm_started_compile_does_each_job_once(self):
        # The benchmark's tracer wraps quditc's module bindings; installing
        # it also checks that every binding it names still resolves.
        tracing = _benchmark_tracing()
        u = random_cliffords(7, 1, 2022)[0]
        g = path_architecture(7)
        steps = qr_decompose(u, g).rotation_count  # one rotation per ladder step
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            # through the module, so that the call is the tracer's root span
            result = adaptive_module.adaptive_compile(u, g, SearchConfig(max_nodes=50))
        assert verify_result(u, result)
        top = "adaptive.adaptive_compile"
        assert tracer.calls(top, "linalg.is_unitary") == 1
        assert tracer.calls(top, "compile.assemble") == 1
        assert steps > 0
        assert tracer.calls(top, "compile.annihilation_angles") == steps
        # emission and assembly conjugate through the quditc._compile binding
        # the benchmark traces: once per rotation at emission, once per gate
        # at assembly
        assert tracer.calls(top, "phases.conjugated") >= len(result.sequence) > 0
