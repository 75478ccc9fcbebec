"""Adaptive search: pruning soundness, reconstruction, and optimality
against exhaustive enumeration on small instances."""
import contextlib
import dataclasses
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
from hypothesis import example, given, settings, strategies as st

from quditc import adaptive as adaptive_module, cost as cost_module, plan_routing
from quditc._compile import (
    annihilation_angles,
    apply_rotation_rows,
    assemble,
    compile_levels,
    emit,
    rotation_scratch,
)
from quditc.adaptive import (
    NoSolutionError,
    SearchConfig,
    _angle,
    _BudgetSpent,
    _columns,
    _dead_child,
    _Search,
    adaptive_compile,
)
from quditc.bench import architectures_for_dim, path_architecture, star_architecture
from quditc.clifford import random_cliffords
from quditc.cost import (CostParams, min_cost_per_radian, pulse_cost, rotation_cost,
                         sequence_cost)
from quditc.gates import RotationGate, rotation_matrix
from quditc.graph import CouplingGraph, _topology, graph_to_dict
from quditc.linalg import DEFAULT_TOL, is_diagonal
from quditc.qr import ladder, ladder_cost, qr_cost_bound, qr_decompose
from quditc.verify import verify_result

from conftest import haar_unitary
from test_graph import connected_edges


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
        # an absolute limit L is the factor L / qr_cost_bound
        u = haar_unitary(3, 41)
        generous = adaptive_compile(u, path3, SearchConfig(max_nodes=20_000))
        limit = generous.total_cost * 1.001
        factor = limit / qr_cost_bound(u, path3)
        assert factor < 1.0
        result = adaptive_compile(
            u, path3, SearchConfig(cost_limit_factor=factor, max_nodes=20_000)
        )
        assert result.total_cost < limit

    @pytest.mark.parametrize("graph", [g for _, g in architectures_for_dim(5)],
                             ids=[aid for aid, _ in architectures_for_dim(5)])
    def test_factor_above_one_is_moot_with_warm_start(self, graph):
        # The limit is only the first incumbent.  A warm start never costs
        # more than the fixed sequence, so under any factor of 1 or above it
        # replaces the limit before the first node, and the searches agree.
        # At exactly 1 the warm start can cost as much as the limit (the
        # one-way replay on bridge): the limit is inclusive, so it is kept.
        for u in random_cliffords(5, 4, 99):
            runs = [adaptive_compile(u, graph, SearchConfig(cost_limit_factor=f, max_nodes=300))
                    for f in (1.0, 1.1, 2.0, math.inf)]
            assert len({result_digest([r]) for r in runs}) == 1
            assert len({r.stats.nodes_expanded for r in runs}) == 1

    def test_unreachable_limit_raises(self, path3):
        u = haar_unitary(3, 42)
        with pytest.raises(NoSolutionError) as info:
            adaptive_compile(u, path3, SearchConfig(cost_limit_factor=1e-9, max_nodes=1000))
        assert info.value.stats.nodes_expanded >= 1
        assert info.value.stats.solutions_found == 0


class TestSmallInstanceOptimality:
    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
    def test_matches_exhaustive_enumeration(self, path3, max_depth):
        # Under every depth cap, down to the one where the root is the last
        # level, the search finds the enumeration's optimum, and finds
        # nothing exactly where the enumeration finds nothing.  Without the
        # warm start every solution is the search's own.
        for seed in range(8):
            u = haar_unitary(3, 500 + seed)
            oracle = exhaustive_min_cost(u, path3, max_depth=max_depth)
            for warm_start in (True, False):
                cfg = SearchConfig(max_nodes=10_000_000, max_depth=max_depth,
                                   warm_start=warm_start)
                if oracle == math.inf:
                    with pytest.raises(NoSolutionError):
                        adaptive_compile(u, path3, cfg)
                    continue
                result = adaptive_compile(u, path3, cfg)
                assert result.total_cost == pytest.approx(oracle, abs=1e-9)


@st.composite
def placed_graphs(draw):
    """A random connected graph on 2 to 7 levels, with 2 or more
    computational states placed on distinct levels."""
    edges = draw(connected_edges(max_levels=7))
    levels = 1 + max(b for _, b in edges)
    placement = draw(st.permutations(range(levels)))[:draw(st.integers(2, levels))]
    return CouplingGraph(levels, edges, {str(k): lv for k, lv in enumerate(placement)})


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
        # The warm start is then the fixed form, fused: qr's steps emitted
        # with undo, where a rotation merges with the routing pulse after it.
        fixed = qr_decompose(u, g)
        first = adaptive_compile(u, g, SearchConfig(return_first=True))
        levels = compile_levels(g, 4)
        steps, m = ladder(u.conj().T)
        rotations = ladder_cost(steps, g, levels, CostParams())[1]
        unfused = emit(g, steps, True)
        assert assemble(unfused, m, levels, 0.0, None).sequence == fixed.sequence
        fused = emit(g, steps, True, (rotations, {}, CostParams(), pulse_cost(CostParams())))
        assert first.sequence == assemble(fused, m, levels, 0.0, None).sequence
        assert first.stats.fused_gates == fused[3] > 0
        assert first.total_cost == fixed.total_cost - fused[4] < fixed.total_cost
        assert first.total_cost == pytest.approx(sequence_cost(first.sequence), rel=1e-12)
        assert first.final_graph.logical_map == fixed.final_graph.logical_map
        assert verify_result(u, first)
        result = adaptive_compile(u, g, SearchConfig(max_nodes=max_nodes))
        assert verify_result(u, result)
        assert result.total_cost <= fixed.total_cost

    @settings(max_examples=100, deadline=None)
    @given(graph=placed_graphs(), seed=st.integers(0, 2**32 - 1))
    @example(graph=CouplingGraph(6, frozenset({(0, 4), (0, 5), (1, 2), (1, 3), (2, 5)}),
                                 {"0": 4, "1": 3, "2": 1, "3": 2}), seed=0)
    def test_warm_start_never_costs_more_than_fixed_sequence(self, graph, seed):
        # The warm start is the cheaper of the one-way replay and the fixed
        # sequence.  On the pinned graph the replay fits the limit but costs
        # about 1.08x the fixed sequence, which the warm start once took.
        u = haar_unitary(graph.num_computational, seed)
        first = adaptive_compile(u, graph, SearchConfig(return_first=True))
        assert first.total_cost <= qr_decompose(u, graph).total_cost
        assert verify_result(u, first)

    def test_without_warm_start_still_searches(self, path3):
        u = haar_unitary(3, 99)
        cold = adaptive_compile(u, path3, SearchConfig(max_nodes=5000, warm_start=False))
        warm = adaptive_compile(u, path3, SearchConfig(max_nodes=5000))
        assert verify_result(u, cold)
        assert warm.total_cost <= cold.total_cost + 1e-15

    def test_warm_start_respects_max_depth(self):
        # The ladder takes three rotations here.  Under a depth cap of one it
        # is no incumbent, so the capped search finds nothing, warm or cold;
        # a cap of three keeps it.
        u = haar_unitary(3, 1)
        assert len(ladder(u.conj().T)[0]) == 3
        for _, g in architectures_for_dim(3):
            for warm_start in (True, False):
                with pytest.raises(NoSolutionError) as info:
                    adaptive_compile(u, g, SearchConfig(max_depth=1, warm_start=warm_start))
                assert info.value.stats.solutions_found == 0
            first = adaptive_compile(u, g, SearchConfig(max_depth=3, return_first=True))
            assert first.stats.nodes_expanded == 0 and first.rotation_count == 3
            assert verify_result(u, first)

    def test_dead_at_cap_counts_the_root(self):
        # Under a depth cap of one the root is the last level: its children
        # sit at the cap, so only a terminal one could be kept.  A step
        # rewrites two rows and all three rows of this input are dirty, so
        # the root ends without a child, and it is the one dead node.
        u = haar_unitary(3, 1)
        m = u.conj().T
        assert all(np.abs(m - np.diag(np.diag(m))).max(axis=1) > DEFAULT_TOL)
        for _, g in architectures_for_dim(3):
            with pytest.raises(NoSolutionError) as info:
                adaptive_compile(u, g, SearchConfig(max_depth=1))
            stats = info.value.stats
            assert (stats.nodes_expanded, stats.dead_at_cap) == (1, 1)
            assert stats.stop_reason == "exhausted"

    @pytest.mark.parametrize("warm_start", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(3, 5), cap=st.integers(1, 8), arch=st.integers(0, 2),
           clifford=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_depth_cap_bounds_results_and_nodes(self, warm_start, dim, cap, arch, clifford,
                                                seed):
        # A result has at most max_depth rotations, and no node at depth
        # max_depth is expanded: a child there is kept only if terminal.
        u = random_cliffords(dim, 1, seed)[0] if clifford and dim != 4 \
            else haar_unitary(dim, seed)
        g = architectures_for_dim(dim)[arch][1]
        cfg = SearchConfig(max_nodes=400, max_depth=cap, warm_start=warm_start)
        try:
            result = adaptive_compile(u, g, cfg)
        except NoSolutionError as exc:
            stats = exc.stats
        else:
            stats = result.stats
            assert result.rotation_count <= cap
            assert verify_result(u, result)
        assert stats.max_depth <= cap - 1
        assert 0 <= stats.dead_at_cap <= stats.nodes_expanded

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
        assert cold.total_cost < cold.stats.cost_limit  # accepted only under the limit

    def test_first_solution_with_incumbent_builds_no_table(self):
        # An accepted warm start answers a first-solution search without
        # expanding a node, and the search builds no table of its own: the
        # distances, routing costs and candidate pairs are shared per edge
        # set and per dimension.
        g = path_architecture(7)
        u = haar_unitary(7, 77)
        m0 = u.conj().T.copy()
        levels = compile_levels(g, 7)
        cfg = SearchConfig(return_first=True)
        limit, warm, emission = adaptive_module._ladder_replay(m0, g, levels, CostParams(), cfg,
                                                               {})
        # the one-way replay, priced by the emission that would build it
        assert warm is not None and emission[2] == warm[0]
        search = _Search(g, levels, cfg, CostParams(), limit, warm)
        search.run(m0)
        assert search.best is warm and search.stats.solutions_found == 1
        assert search.stats.stop_reason == "first_solution"
        assert search.stats.nodes_expanded == 0
        star = star_architecture(7)
        other = _Search(star, compile_levels(star, 7), SearchConfig(), CostParams(), limit, None)
        assert other.columns is search.columns
        assert search.dist is _topology(g.num_levels, g.edges)[1]
        assert search.pulses is adaptive_module._pulse_costs(g.num_levels, g.edges,
                                                             search.pulse_cost)

    def test_no_solution_error_carries_reason(self, path3):
        with pytest.raises(NoSolutionError) as info:
            adaptive_compile(haar_unitary(3, 42), path3, SearchConfig(cost_limit_factor=1e-9))
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


class TestBudgetPrefix:
    def test_a_larger_budget_extends_the_same_search(self):
        # Only count reads max_nodes, so the search at budget B is a prefix
        # of the search at any larger budget: the cost never rises and the
        # counters never fall as B grows, a search the budget stopped spent
        # all of it, and once a search is exhausted a larger budget changes
        # nothing.  No solution within the budget reads as an infinite cost.
        stops = Counter()
        for dim in (3, 5):
            for u in random_cliffords(dim, 2, 77):
                for _, g in architectures_for_dim(dim):
                    for warm in (True, False):
                        previous = None
                        for budget in range(41):
                            cfg = SearchConfig(max_nodes=budget, warm_start=warm)
                            try:
                                result = adaptive_compile(u, g, cfg)
                                stats, cost = result.stats, result.total_cost
                            except NoSolutionError as exc:
                                stats, cost = exc.stats, math.inf
                            stats = dataclasses.replace(stats, wall_time_ms=0.0)
                            stops[stats.stop_reason, math.isinf(cost)] += 1
                            if stats.stop_reason == "node_budget":
                                assert stats.nodes_expanded == budget
                            if previous is not None:
                                before, cost_before = previous
                                assert cost <= cost_before
                                for field in ("dead_at_cap", "cut_by_bound", "solutions_found",
                                              "max_depth"):
                                    assert getattr(stats, field) >= getattr(before, field)
                                if before.stop_reason == "exhausted":
                                    assert (stats, cost) == previous
                            previous = stats, cost
        # the sweep reaches budget stops with and without a solution, and
        # exhausted searches
        assert min(stops["node_budget", False], stops["node_budget", True],
                   stops["exhausted", False]) > 0, stops


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
        {"cost_limit_factor": math.nan}, {"cost_limit_factor": 0.0},
        {"cost_limit_factor": -1.0}, {"cost_limit_factor": -math.inf},
        {"max_nodes": -1}, {"max_depth": 0}, {"max_depth": -2},
        # each of the right type only: NaN, a string, None, a bool or a
        # fractional count would otherwise be read as a limit it cannot mean
        {"max_depth": math.nan}, {"max_depth": "3"}, {"max_depth": 2.0},
        {"max_nodes": math.nan}, {"max_nodes": None}, {"max_nodes": True},
        {"max_nodes": 1000.0}, {"cost_limit_factor": "2"}, {"cost_limit_factor": True},
        {"return_first": "no"}, {"return_first": 1}, {"warm_start": "no"},
        {"warm_start": None},
    ])
    def test_invalid_config_rejected(self, fields):
        with pytest.raises(ValueError):
            SearchConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"cost_limit_factor": math.inf}, {"cost_limit_factor": 0.5},
        {"max_nodes": 0}, {"max_depth": 1}, {"cost_limit_factor": 2},
        {"max_nodes": np.int64(10)}, {"max_depth": np.int64(3)},
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


def root_node(search, m, cost):
    """The node (step, rows, pair, mag, ang, dirty, levels, cost, angles) of
    a root given as a full matrix and reached at cost, as _Search.run builds
    it; children reads neither its rows nor its angles."""
    mag = np.hypot(m.real, m.imag).tolist()
    dirty = sum(1 << k for k, row in enumerate(mag) if max(row[:k] + row[k + 1:]) > DEFAULT_TOL)
    return (None, list(m), None, mag, np.arctan2(m.imag, m.real).tolist(), dirty,
            search.levels, cost, None)


def reference_children(search, m, graph, cost):
    """The node's children from the scalar per-candidate calls, column by
    column: zero-tolerance filter, annihilation angles, routed step cost,
    filter against the incumbent's cost.  Within a column they stay in
    (row, row2) order, or are sorted by step cost once the incumbent has
    steps.  Each is (step, c, r, r2, theta, phi, cost so far), the cost so
    far summed as cost + rotation + routing."""
    states = graph.state_order()
    dim = m.shape[0]
    limit = search.best[0]
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
                rot = rotation_cost(theta, 1, search.params)
                routing = hops * pulse_cost(search.params)
                step = routing + rot
                if cost + step >= limit:
                    continue
                column.append((step, c, r, r2, theta, phi, cost + rot + routing))
        if search.best[1] is not None:
            column.sort()
        children.extend(column)
    return children


def as_built(listed):
    """reference_children's entries as _Search.children yields a child to
    build: ((r, r2, theta, phi), cost so far, cos and sin of theta / 2)."""
    return [((r, r2, theta, phi), cost, math.cos(theta / 2), math.sin(theta / 2))
            for _, _, r, r2, theta, phi, cost in listed]


@pytest.mark.parametrize("dim", range(2, 10))
def test_column_units_enumerate_one_pair_set(dim):
    # Both child orders enumerate one candidate set: a column's cold units
    # are its pairs c <= r < r2 in (r, r2) order, one pivot each, and its
    # warm unit holds the same pairs, reading each entry r2 > c once.  A
    # pair's cold unit is one object in every column, so the cold lists
    # share their units.
    shared = {}
    columns = _columns(dim)
    assert [c for c, _, _ in columns] == list(range(dim))
    for c, cold, warm in columns:
        pairs = [(r, r2) for r in range(c, dim) for r2 in range(r + 1, dim)]
        assert [(r, r2) for unit in cold for r2, pivots in unit for r in pivots] == pairs
        assert all(len(unit) == 1 and len(unit[0][1]) == 1 for unit in cold)
        assert len(warm) == 1 and [r2 for r2, _ in warm[0]] == list(range(c + 1, dim))
        assert sorted((r, r2) for unit in warm for r2, pivots in unit for r in pivots) == pairs
        for pair, unit in zip(pairs, cold):
            assert shared.setdefault(pair, unit) is unit


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
    bound = qr_cost_bound(u, g)
    if draw(st.booleans()):
        # a cost so far that leaves room for some children but not all
        spent = draw(st.floats(0.0, 0.9)) * bound
    else:
        # within a few ulps of limit - k pulses, where a candidate's routing
        # alone reaches the tests' limit (1.1 times the bound) or just misses it
        spent = 1.1 * bound - draw(st.integers(1, 3)) * pulse_cost(CostParams())
        spent = max(0.0, spent + draw(st.integers(-2, 2)) * math.ulp(spent))
    return u, g, spent


@st.composite
def block_cases(draw):
    """(u, graph, 0.0) with u's conjugate transpose a block node
    (block_node): diagonal outside a Haar block on each of one to three
    disjoint row sets, so that one to all of its rows are dirty."""
    dim = draw(st.integers(3, 7))
    order = draw(st.permutations(range(dim)))
    blocks = []
    for size in draw(st.lists(st.integers(2, min(4, dim)), min_size=1, max_size=3)):
        if len(order) >= size:
            blocks.append(sorted(order[:size]))
            order = order[size:]
    m = block_node(dim, draw(st.integers(0, 2**31)), blocks)
    return m.conj().T, draw(st.sampled_from(architectures_for_dim(dim)))[1], 0.0


def reference_angle_floor(angles, mag, norms, r, r2, co, si) -> float:
    """The angle bound's sum as the two-stage path took it: the node's
    column angles less those at r and r2, plus the child's two from upper
    bounds on its new diagonal moduli."""
    alphas, total = angles
    return total - alphas[r] - alphas[r2] + _angle(co * mag[r][r] + si * mag[r2][r], norms[r]) \
        + _angle(si * mag[r][r2] + co * mag[r2][r2], norms[r2])


def two_stage_children(search, m, graph, node, depth):
    """A test-side copy of the search's earlier two-stage path: the node's
    children listed (reference_children, then the last-level covering
    rule) and each decided as the run loop decided it before building it,
    by _dead_child, then reference_angle_floor, a cut one counted with
    search.count.  Returns the children that path went on to build, as
    as_built gives them."""
    _, _, _, mag, _, dirty, _, cost, angles = node
    cap, stats = search.depth_cap, search.stats
    if depth >= cap and dirty.bit_count() > 2:
        stats.dead_at_cap += 1
        return []
    built = []
    with contextlib.suppress(_BudgetSpent):  # a cut child spent the budget
        for child in reference_children(search, m, graph, cost):
            _, _, r, r2, theta, _, cost2 = child
            if depth >= cap and dirty & ~(1 << r | 1 << r2):
                continue
            if depth < cap and (angles or depth + 1 == cap):
                co, si = math.cos(theta / 2), math.sin(theta / 2)
                if depth + 1 == cap and _dead_child(mag, dirty, r, r2, co, si):
                    search.count(depth)
                    stats.dead_at_cap += 1
                    continue
                if angles and cost2 + search.floor * reference_angle_floor(
                        angles, mag, search.norms, r, r2, co, si) >= search.best[0]:
                    search.count(depth)
                    stats.cut_by_bound += 1
                    continue
            built += as_built([child])
    return built


def decided_node(search, m, cost, made):
    """The node of matrix m reached at cost by a step on the rows made: as
    root_node, but with NaN phase rows at made, which children must compute
    from pair before its first yield, and with column angles under a floor
    (the search's root norms become m's)."""
    _, rows, _, mag, ang, dirty, levels, _, _ = root_node(search, m, cost)
    ang = [[math.nan] * len(m) if k in made else row for k, row in enumerate(ang)]
    search.norms = [math.hypot(*col) for col in zip(*mag)]
    alphas = [_angle(mag[c][c], search.norms[c]) for c in range(len(m))]
    angles = (alphas, sum(alphas)) if search.floor else None
    pair = np.array([m[made[0]], m[made[1]]])
    return (made[0], made[1], 0.0, 0.0), rows, pair, mag, ang, dirty, levels, cost, angles


def decide_both(u, g, spent, params, cap, depth, budget, made, incumbent, slack):
    """(children's yields, the two-stage path's built children, their two
    searches, the node children was given) for one node of the matrix
    u^dagger at cost spent.  The limit is spent plus slack times the
    floor's share of the node's angle sum plus one pulse, so that some
    children are cut and some are not; with slack None it is the first
    child's bound exactly (under a floor), which that child must reach.
    incumbent gives the limit steps."""
    m = u.conj().T.copy()
    cfg = SearchConfig(max_nodes=budget, max_depth=cap)
    levels = compile_levels(g, len(m))
    probe = _Search(g, levels, cfg, params, math.inf, None)
    if incumbent:
        probe.best = (math.inf, [], None)
    node = decided_node(probe, m, spent, made)
    mag, angles, norms = node[3], node[8], probe.norms
    if slack is None:
        _, _, r, r2, theta, _, cost2 = reference_children(probe, m, g, spent)[0]
        limit = cost2 + (probe.floor * reference_angle_floor(
            angles, mag, norms, r, r2, math.cos(theta / 2), math.sin(theta / 2))
            if angles else pulse_cost(params))
    else:
        total = sum(_angle(mag[c][c], norms[c]) for c in range(len(m)))
        limit = spent + slack * (min_cost_per_radian() * total + pulse_cost(params))
    one, two = (_Search(g, levels, cfg, params, limit, None) for _ in range(2))
    if incumbent:
        one.best = two.best = (limit, [], None)
    node = decided_node(one, m, spent, made)
    built = []
    with contextlib.suppress(_BudgetSpent):  # the children end once the budget is spent
        for child in one.children(node, depth):
            built.append(child)
    expected = two_stage_children(two, m, g, decided_node(two, m, spent, made), depth)
    return built, expected, one, two, node


class TestNodeScoring:
    @pytest.mark.parametrize("incumbent", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(case=scoring_cases())
    def test_matches_scalar_reference(self, incumbent, case):
        # While the incumbent is the bare limit (a cold search before its
        # first solution) the children come in triple order; once it has
        # steps, each column is sorted by step cost.  Either way every
        # candidate is priced, once, unless its routing alone reaches the
        # limit.  The counting model has no floor and the root's children
        # sit far from the depth cap, so no child is cut: every candidate
        # that passes is yielded to be built.
        u, g, spent = case
        m = u.conj().T.copy()
        limit = 1.1 * qr_cost_bound(u, g)
        levels = compile_levels(g, m.shape[0])
        priced = []

        def counting(theta, dist, p):
            priced.append(theta)
            return cost_module._calibrated_linear(theta, dist, p)

        search = _Search(g, levels, SearchConfig(), CostParams(model=counting), limit, None)
        if incumbent:
            search.best = (limit, [], None)
        priced.clear()  # the pulse's price
        children = list(search.children(root_node(search, m, spent)))
        searched = sorted(priced)
        expected = reference_children(search, m, g, spent)
        # tuples compare float for float: exact equality, no tolerance
        assert children == as_built(expected)
        assert search.stats.nodes_expanded == 0
        dim, pulse, dist = m.shape[0], search.pulse_cost, search.dist
        routed = {annihilation_angles(m, r, r2, c)[0]
                  for c in range(dim) for r in range(c, dim) for r2 in range(r + 1, dim)
                  if abs(m[r2, c]) > DEFAULT_TOL
                  and spent + (dist[levels[r]][levels[r2]] - 1) * pulse < limit}
        assert searched == sorted(routed)

    @settings(max_examples=60, deadline=None)
    @given(case=scoring_cases(), cut=st.floats(0.0, 1.0), after=st.integers(1, 6))
    def test_generator_rechecks_improved_incumbent(self, case, cut, after):
        # The incumbent improves while the caller searches the subtree of
        # the `after`-th child; the children still to come must be exactly
        # the score-time list rechecked against the improved limit.  The
        # search starts with an incumbent with steps at the limit, so every
        # column is sorted by step cost.  Under unbounded() and far from
        # the depth cap no child is cut, so each one listed is yielded.
        u, g, spent = case
        m = u.conj().T.copy()
        limit = 1.1 * qr_cost_bound(u, g)
        levels = compile_levels(g, m.shape[0])
        search = _Search(g, levels, SearchConfig(), unbounded(), limit, None)
        search.best = (limit, [], None)
        improved = spent + cut * (limit - spent)
        listed = reference_children(search, m, g, spent)
        expected = as_built(listed[:after] + [ch for ch in listed[after:]
                                              if spent + ch[0] < improved])
        yielded = []
        for child in search.children(root_node(search, m, spent)):
            yielded.append(child)
            if len(yielded) == after:
                search.best = (improved, [], None)
        assert yielded == expected

    @pytest.mark.parametrize("incumbent", [False, True])
    @settings(max_examples=80, deadline=None)
    @given(case=scoring_cases(), block=st.one_of(
        st.none(), st.sets(st.integers(0, 6), min_size=2, max_size=4)))
    # rows 0 and 3 of path-5: the covering pivot 0 needs two pulses, and the
    # pivot 2 of the same entry, which leaves row 0 dirty, none, so once the
    # incumbent has steps a child that must be skipped sorts first
    @example(case=(haar_unitary(5, 0), path_architecture(5), 0.0), block={0, 3})
    def test_last_level_keeps_only_covering_children(self, incumbent, case, block):
        # A node one step from the depth cap yields only children that can
        # be terminal: a step rewrites rows r and r2 only, so those must
        # cover every dirty row.  With more than two dirty rows none can,
        # and the node yields nothing.  The node is the case's matrix, or
        # one that is diagonal outside a unitary block on the rows in
        # block, so that it has two, three or four dirty rows; the rows a
        # block leaves clean are pivots that no covering child can take.
        # Its children sit at the cap, where no child is cut: a kept child
        # is yielded to be built.
        u, g, spent = case
        m = u.conj().T.copy()
        dim = m.shape[0]
        if block is not None:
            rows = sorted({k % dim for k in block})
            inner, _ = np.linalg.qr(m[np.ix_(rows, rows)])
            m = np.diag(np.exp(1j * np.arange(dim)))
            m[np.ix_(rows, rows)] = inner
        limit = spent + 1.1 * qr_cost_bound(m.conj().T, g)
        levels = compile_levels(g, dim)
        search = _Search(g, levels, SearchConfig(), CostParams(), limit, None)
        if incumbent:
            search.best = (limit, [], None)
        node = root_node(search, m, spent)
        dirty = node[5]
        children = list(search.children(node, search.depth_cap))
        covering = [ch for ch in reference_children(search, m, g, spent)
                    if not dirty & ~(1 << ch[2] | 1 << ch[3])]
        assert children == as_built(covering)
        assert search.stats.nodes_expanded == search.stats.cut_by_bound == 0
        if dirty.bit_count() > 2:
            assert children == [] and search.stats.dead_at_cap == 1
        else:
            assert search.stats.dead_at_cap == 0


    def test_cold_root_prices_lazily(self):
        # Before the first incumbent a node prices its candidates in (r, r2)
        # order and stops at the first one it yields.  A candidate whose
        # routing alone reaches the incumbent's cost is not priced at all.
        # The counting model has no floor and the root's children sit far
        # from the depth cap, so the first child listed is the first one
        # yielded to be built.
        priced = []

        def counting(theta, dist, p):
            priced.append(theta)
            return cost_module._calibrated_linear(theta, dist, p)

        params = CostParams(model=counting)
        pulse = pulse_cost(params)
        g = path_architecture(5)
        g = CouplingGraph(5, g.edges, {str(k): (2 * k + 1) % 5 for k in range(5)})
        _, dist = _topology(g.num_levels, g.edges)
        levels = compile_levels(g, 5)
        rejected = unrouted = 0
        for seed in range(4):
            u = haar_unitary(5, 1300 + seed)
            m = u.conj().T.copy()
            limit = 1.1 * qr_cost_bound(u, g)
            reference = _Search(g, levels, SearchConfig(), CostParams(), limit, None)
            # Past limit - pulse, a candidate that needs routing is rejected;
            # past limit - pulse / 2, so is an unrouted one's large rotation.
            for spent in (0.0, limit - pulse / 2, limit - pulse):
                listed = reference_children(reference, m, g, spent)
                live = [(annihilation_angles(m, r, r2, c)[0], dist[levels[r]][levels[r2]] - 1)
                        for c in range(5) for r in range(c, 5) for r2 in range(r + 1, 5)
                        if abs(m[r2, c]) > DEFAULT_TOL]
                thetas = [theta for theta, _ in live]
                scanned = live[:thetas.index(listed[0][4]) + 1]
                expected = [theta for theta, hops in scanned if spent + hops * pulse < limit]
                search = _Search(g, levels, SearchConfig(), params, limit, None)
                priced.clear()
                children = search.children(root_node(search, m, spent))
                assert next(children) == as_built(listed[:1])[0]
                assert priced == expected
                rejected += len(expected) - 1
                unrouted += len(scanned) - len(expected)
        assert rejected > 0 and unrouted > 0

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(scoring_cases(), block_cases()), data=st.data())
    def test_one_decision_site_matches_the_two_stage_path(self, case, data):
        # children decides each child where it prices it; the earlier path
        # yielded it, then decided it in the run loop.  Both must build the
        # same children float for float (step, cost so far, cos and sin of
        # half the angle), count the same cuts and stop at the same node:
        # near the cap (the dead test), at the cap (the covering rule, no
        # cut), far from it (the bound alone), with a budget that may run
        # out in the middle of the node, under a model with and without a
        # floor.  The node's stale phase rows are computed at its first
        # built child, and a node that builds none computes none.
        u, g, spent = case
        dim = u.shape[0]
        cap = data.draw(st.integers(2, 8), label="cap")
        depth = data.draw(st.sampled_from([1, cap - 1, cap]), label="depth")
        made = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True),
                         label="made")
        built, expected, one, two, node = decide_both(
            u, g, spent, data.draw(st.sampled_from([CostParams(), unbounded()]), label="params"),
            cap, depth, data.draw(st.integers(0, 12), label="max_nodes"), made,
            data.draw(st.booleans(), label="incumbent"),
            data.draw(st.one_of(st.none(), st.floats(0.0, 2.0)), label="slack"))
        assert built == expected
        for field in ("nodes_expanded", "dead_at_cap", "cut_by_bound", "max_depth",
                      "stop_reason", "solutions_found"):
            assert getattr(one.stats, field) == getattr(two.stats, field), field
        phases = node[4][made[0]] + node[4][made[1]]
        if built:
            m = u.conj().T
            assert phases == np.arctan2(m[made].imag, m[made].real).ravel().tolist()
        else:
            assert all(map(math.isnan, phases))

    def test_two_stage_cases_reach_every_decision(self):
        # The property's draws reach each outcome it claims to cover: cuts
        # by the bound and dead children near the cap, a budget spent in the
        # middle of a node, and kept children at the cap.
        seen = Counter()
        for seed in range(40):
            # Haar, five dirty rows in two blocks, or two dirty rows
            blocks = [[0, 1, 2], [3, 4]] if seed % 4 == 2 else [[1, 3]]
            u = haar_unitary(5, 2700 + seed) if seed % 2 else \
                block_node(5, 2700 + seed, blocks).conj().T
            for _, g in architectures_for_dim(5):
                for depth in (1, 4, 5):
                    built, expected, one, _, _ = decide_both(
                        u, g, 0.0, CostParams(), 5, depth, 4 + seed % 8, (0, 1), seed % 3 > 0,
                        0.5 + (seed % 5) / 4)
                    assert built == expected
                    stats = one.stats
                    seen["cut"] += stats.cut_by_bound > 0
                    seen["dead"] += stats.dead_at_cap > 0 and depth == 4
                    seen["budget"] += stats.stop_reason == "node_budget"
                    seen["built at the cap"] += depth == 5 and len(built) > 0
                    seen["built after a cut"] += stats.nodes_expanded > 0 and len(built) > 0
                # the first child's bound equals the limit: it is cut
                built, expected, one, _, _ = decide_both(u, g, 0.0, CostParams(), 5, 1, 100,
                                                         (0, 1), seed % 3 > 0, None)
                assert built == expected
                seen["cut at a tie"] += one.stats.cut_by_bound > 0
        assert min(seen[k] for k in ("cut", "dead", "budget", "built at the cap",
                                     "built after a cut", "cut at a tie")) > 0, seen


def unbounded(params=CostParams()):
    """params' default model behind a wrapper: the same costs bit for bit,
    but a model without a floor, so a search under it cuts nothing by the
    angle bound."""
    return CostParams(params.base_factor, params.calibrated_angle,
                      lambda theta, dist, p: cost_module._calibrated_linear(theta, dist, p))


def permutation_like(dim, seed):
    """A permutation matrix with random phases: zero diagonals put the
    annihilation angles at their pi limit."""
    rng = np.random.default_rng(seed)
    u = np.zeros((dim, dim), dtype=complex)
    u[rng.permutation(dim), np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return u


def perturbed(dim, seed):
    """A Haar unitary with every entry moved by about 1e-10, unitary only to
    within DEFAULT_TOL."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return haar_unitary(dim, seed) + 1e-10 * noise


def block_node(dim, seed, blocks):
    """A unitary, diagonal outside one Haar block on each of the disjoint row
    sets in blocks, so that exactly those rows are dirty."""
    m = np.diag(np.exp(1j * np.arange(dim)))
    for i, rows in enumerate(blocks):
        m[np.ix_(rows, rows)] = haar_unitary(len(rows), seed + i)
    return m


def dirty_bits(mag):
    return sum(1 << k for k, row in enumerate(mag) if max(row[:k] + row[k + 1:]) > DEFAULT_TOL)


class TestAngleBound:
    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), theta=st.floats(0.0, math.pi),
           phi=st.floats(-math.pi, math.pi), data=st.data())
    def test_one_rotation_moves_a_column_angle_by_at_most_half_its_angle(self, dim, seed,
                                                                       theta, phi, data):
        # Column c's angle acos(|m[c][c]| / |column|) changes only where c is
        # one of the rotated rows, and then by at most theta / 2; the bound's
        # angle, from the upper bound co |m[r][c]| + si |m[r2][c]| on the new
        # modulus, is at most the true new angle.
        r, r2 = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2,
                                   unique=True))
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m /= np.linalg.norm(m, axis=0)  # unit columns
        new = rotation_matrix(RotationGate(r, r2, theta, phi), dim) @ m
        norms = np.linalg.norm(m, axis=0)
        co, si = math.cos(theta / 2), math.sin(theta / 2)
        for c in range(dim):
            before = math.acos(min(1.0, abs(m[c, c]) / norms[c]))
            after = math.acos(min(1.0, abs(new[c, c]) / norms[c]))
            if c in (r, r2):
                assert abs(after - before) <= theta / 2 + 1e-7
                other = r2 if c == r else r
                upper = co * abs(m[c, c]) + si * abs(m[other, c])
                assert _angle(upper, norms[c]) <= after
            else:
                assert after == before

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**31),
           kind=st.sampled_from([haar_unitary, permutation_like, perturbed]))
    @example(dim=2, seed=39827, kind=permutation_like)
    def test_largest_angle_never_exceeds_the_others_sum(self, dim, seed, kind):
        # Why the bound takes the angles' sum alone: on a unitary, twice the
        # largest angle (the other lower bound) is never more. The angle is
        # taken as atan2(|off-diagonal|, |diagonal|), not acos of their ratio:
        # acos near 1 turns a one-ulp rounding of |exp(i phi)| into 1.5e-8.
        u = kind(dim, seed)
        alphas = [math.atan2(np.linalg.norm(np.delete(u[:, c], c)), abs(u[c, c]))
                  for c in range(dim)]
        assert 2 * max(alphas) <= sum(alphas) + 1e-9

    @pytest.mark.parametrize("kind", ["haar", "permutation", "perturbed"])
    def test_exhausted_search_matches_unbounded_reference(self, kind):
        # A cut subtree holds no solution below the incumbent, so an
        # exhausted search returns the reference's gates bit for bit, in no
        # more nodes, for either set of cost parameters.
        # d=4 inputs whose unbounded searches take under 40000 nodes
        make, quick = {"haar": (haar_unitary, (901, 902)),
                       "permutation": (permutation_like, (900, 904)),
                       "perturbed": (perturbed, (901, 902))}[kind]
        cfg = SearchConfig(max_nodes=10_000_000)
        cut = 0
        for params in (CostParams(), CostParams(base_factor=3e-4, calibrated_angle=0.25)):
            for dim, seed in [(3, seed) for seed in range(900, 906)] + [(4, s) for s in quick]:
                u = make(dim, seed)
                for name, g in architectures_for_dim(dim):
                    if name == "star-4" and kind != "permutation":
                        continue  # 87000 to 171000 unbounded nodes
                    bounded = adaptive_compile(u, g, cfg, params)
                    reference = adaptive_compile(u, g, cfg, unbounded(params))
                    assert bounded.stats.stop_reason == reference.stats.stop_reason == "exhausted"
                    assert result_digest([bounded]) == result_digest([reference])
                    assert reference.stats.cut_by_bound == 0
                    assert bounded.stats.nodes_expanded <= reference.stats.nodes_expanded
                    cut += bounded.stats.cut_by_bound
        assert cut > 0

    @pytest.mark.parametrize("max_nodes", [30, 100, 300, 1000])
    def test_budget_bound_search_costs_no_more_than_reference(self, max_nodes):
        # The bound skips only subtrees without a cheaper solution, so the
        # same budget reaches at least as far.
        fell = 0
        for _, g in architectures_for_dim(5):
            for u in random_cliffords(5, 3, 2424):
                cfg = SearchConfig(max_nodes=max_nodes)
                bounded = adaptive_compile(u, g, cfg)
                reference = adaptive_compile(u, g, cfg, unbounded())
                assert bounded.total_cost <= reference.total_cost
                assert bounded.stats.nodes_expanded <= max_nodes
                fell += bounded.total_cost < reference.total_cost
        assert max_nodes < 1000 or fell > 0

    def test_other_models_cut_nothing(self, flat_cost_model):
        for params in (flat_cost_model, unbounded()):
            for _, g in architectures_for_dim(5):
                for u in random_cliffords(5, 2, 2425):
                    stats = adaptive_compile(u, g, SearchConfig(max_nodes=500), params).stats
                    assert stats.cut_by_bound == 0 and stats.nodes_expanded > 0

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(3, 7), seed=st.integers(0, 2**31), data=st.data())
    def test_a_child_called_dead_is_dead_when_built(self, dim, seed, data):
        # Every child that _dead_child proves to keep more than two dirty
        # rows has them once apply_rotation_rows builds it.  Two-row blocks
        # give children that clean both of their rows, which the proof must
        # not count.
        order = data.draw(st.permutations(range(dim)))
        blocks = []
        for size in data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)):
            if len(order) >= size:
                blocks.append(sorted(order[:size]))
                order = order[size:]
        m = block_node(dim, seed, blocks)
        rows, mag = list(m), np.hypot(m.real, m.imag).tolist()
        dirty, scratch = dirty_bits(mag), rotation_scratch(dim)
        for c in range(dim):
            for r in range(c, dim):
                for r2 in range(r + 1, dim):
                    if mag[r2][c] <= DEFAULT_TOL:
                        continue
                    theta, phi = annihilation_angles(m, r, r2, c)
                    co, si = math.cos(theta / 2), math.sin(theta / 2)
                    if _dead_child(mag, dirty, r, r2, co, si):
                        child = rows.copy()
                        child[r], child[r2] = apply_rotation_rows(rows[r], rows[r2], co, si, phi,
                                                                  scratch)
                        child = np.array(child)
                        assert dirty_bits(np.hypot(child.real, child.imag).tolist()) \
                            .bit_count() > 2

    def test_dead_child_proof_covers_the_pair(self):
        # With one or two dirty rows outside the pair, the proof must show
        # that rows r and r2 stay dirty; it does so for some children of
        # these nodes.
        proven = Counter()
        for seed in range(30):
            for blocks in ([[0, 1, 2]], [[0, 1, 2, 3]], [[1, 3, 4]], [[0, 2], [1, 4]]):
                m = block_node(5, seed, blocks)
                mag = np.hypot(m.real, m.imag).tolist()
                dirty = dirty_bits(mag)
                for c in range(5):
                    for r in range(c, 5):
                        for r2 in range(r + 1, 5):
                            if mag[r2][c] <= DEFAULT_TOL:
                                continue
                            theta = annihilation_angles(m, r, r2, c)[0]
                            n = (dirty & ~(1 << r | 1 << r2)).bit_count()
                            if _dead_child(mag, dirty, r, r2, math.cos(theta / 2),
                                           math.sin(theta / 2)):
                                proven[n] += 1
        assert proven[1] > 0 and proven[2] > 0

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(3, 5), cap=st.integers(1, 9), arch=st.integers(0, 2),
           warm_start=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_dead_child_test_changes_no_count(self, dim, cap, arch, warm_start, seed):
        # Deciding at the parent that a child is dead saves building it and
        # nothing else: without that test the child is entered, counted and
        # found dead by its own node.  Under a model without a floor no
        # child is cut by the bound, so every count matches.
        u = haar_unitary(dim, seed)
        g = architectures_for_dim(dim)[arch][1]
        cfg = SearchConfig(max_nodes=300, max_depth=cap, warm_start=warm_start)

        def run():
            try:
                result = adaptive_compile(u, g, cfg, unbounded())
            except NoSolutionError as exc:
                return None, exc.stats
            return result_digest([result]), result.stats

        digest, stats = run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adaptive_module, "_dead_child", lambda *args: False)
            built_digest, built = run()
        assert digest == built_digest
        for field in ("nodes_expanded", "max_depth", "solutions_found", "dead_at_cap",
                      "stop_reason"):
            assert getattr(stats, field) == getattr(built, field)


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

    def test_warm_start_prices_each_ladder_step_once(self):
        # The ladder is priced in one pass for the limit and the warm start:
        # apart from the pulse angle, the model sees each step's angle once,
        # in step order, and then, once each, the angle pi - theta of each
        # rotation that emission weighs merging with the pulse after it.
        calls = []

        def counting(theta, dist, p):
            calls.append(theta)
            return cost_module._calibrated_linear(theta, dist, p)

        params = CostParams(model=counting)
        for _, g in architectures_for_dim(5):
            u = haar_unitary(5, 1400)
            steps = ladder(u.conj().T)[0]
            calls.clear()
            result = adaptive_compile(u, g, SearchConfig(return_first=True), params)
            assert result.stats.nodes_expanded == 0 and result.stats.solutions_found == 1
            angles = [t for _, _, t, _ in steps]
            priced = [t for t in calls if t != math.pi]
            assert priced[:len(steps)] == angles
            fused = priced[len(steps):]
            # the default formula always gains from a merge: each weighed one is made
            assert len(fused) == len(set(fused)) == result.stats.fused_gates
            assert all(math.pi - t in angles for t in fused)

    def test_each_angle_priced_once_per_search(self):
        calls = Counter()

        def counting(theta, dist, p):
            calls[theta] += 1
            return cost_module._calibrated_linear(theta, dist, p)

        params = CostParams(model=counting)
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 2, "2": 1})
        cfg = SearchConfig(max_nodes=10_000_000, max_depth=4)
        for seed in range(4):
            u = haar_unitary(3, 1200 + seed)
            m0 = u.conj().T.copy()
            limit = 1.1 * qr_cost_bound(u, g)
            search = _Search(g, compile_levels(g, 3), cfg, params, limit, None)
            calls.clear()
            search.run(m0)
            assert calls and max(calls.values()) == 1
            # the search ranks by unfused cost, and reaches the unfused optimum;
            # the answer is the cheapest fused form of its incumbents, and the
            # compile adds its warm start to them
            optimum = exhaustive_min_cost(u, g, params)
            assert search.best[0] == pytest.approx(optimum, abs=1e-12)
            assert search.answer[0] <= search.best[0]
            result = adaptive_compile(u, g, cfg, params)
            assert result.total_cost <= search.answer[0]


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
        # Eight of these twelve answers come from the search and four from
        # the warm-start ladder (one of them where the search's cheaper
        # unfused incumbent costs more fused), 24 gates fused in all; the
        # digest pins every gate bit for bit.
        results = []
        for dim in (5, 7):
            for _, g in architectures_for_dim(dim):
                for u in random_cliffords(dim, 2, 2022):
                    results.append(adaptive_compile(u, g, SearchConfig(max_nodes=300)))
        assert result_digest(results) == \
            "53da94361383f76bfc6f0e966a4fa1ae04fa58dd9d9c692e318331d4416e414d"

    def test_haar31_warm_start_replay_unchanged(self):
        # return_first accepts the warm start: the ladder's steps replayed
        # with one-way routing, emitted fused and assembled without a search
        # node.
        results = [adaptive_compile(haar_unitary(31, seed), g, SearchConfig(return_first=True))
                   for _, g in architectures_for_dim(31) for seed in (3101, 3102)]
        assert all(r.stats.nodes_expanded == 0 for r in results)
        assert result_digest(results) == \
            "9ecc5b972ba2439ab358cad638cd13bf7e00beb1d0eafc3db6bcf33a48a6fbbd"


def _benchmark_tracing():
    """benchmark/tracing.py, loaded by path: it is not a package module."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("quditc_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWorkCounts:
    def test_warm_started_compile_does_each_job_once(self, monkeypatch):
        # The benchmark's tracer wraps quditc's module bindings; installing
        # it also checks that every binding it names still resolves.
        tracing = _benchmark_tracing()
        u = random_cliffords(7, 1, 2022)[0]
        g = path_architecture(7)
        steps = qr_decompose(u, g).rotation_count  # one rotation per ladder step
        ladder_steps = []

        def counted_ladder(m0):
            out = ladder(m0)
            ladder_steps.append(len(out[0]))
            return out

        monkeypatch.setattr(adaptive_module, "ladder", counted_ladder)
        emitted, built = counted_emission(monkeypatch)
        incumbents = counted_incumbents(monkeypatch)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            # through the module, so that the call is the tracer's root span
            result = adaptive_module.adaptive_compile(u, g, SearchConfig(max_nodes=50))
        assert verify_result(u, result)
        top = "adaptive.adaptive_compile"
        assert tracer.calls(top, "linalg.is_unitary") == 1
        assert tracer.calls(top, "compile.assemble") == 1
        assert steps > 0
        assert ladder_steps == [steps]  # the ladder runs once per compile
        # the warm start is emitted once, fused, to price it; each incumbent
        # the search finds is emitted once, fused, as it is found
        assert emitted[0] == (steps, False, True)
        assert len(emitted) == 1 + incumbents[0]
        assert all(fused for _, _, fused in emitted)
        assert incumbents[0] >= result.stats.beat_warm_start
        # assembly builds each gate once, from one emitted record per gate
        assert built == [(result.rotation_count, len(result.sequence))]
        assert len(result.sequence) > 0

    def test_emission_runs_only_for_the_final_answer(self, monkeypatch):
        # The search beats its warm start here: the warm start is emitted
        # to price it, each incumbent is emitted as it is found, the last
        # of them is the answer, and only the answer's gates are built, once.
        emitted, built = counted_emission(monkeypatch)
        incumbents = counted_incumbents(monkeypatch)
        u, g = random_cliffords(7, 3, 2022)[0], path_architecture(7)
        result = adaptive_compile(u, g, SearchConfig(max_nodes=1000))
        assert result.stats.beat_warm_start
        assert len(emitted) == 1 + incumbents[0]
        assert emitted[0] == (qr_decompose(u, g).rotation_count, False, True)
        assert emitted[-1] == (result.rotation_count, False, True)
        assert built == [(result.rotation_count, len(result.sequence))]

    def test_first_solution_emits_its_warm_start_once(self, monkeypatch):
        # An accepted one-way replay is assembled from the emission that
        # priced it: one emission, without undo, and one assembly.
        emitted, built = counted_emission(monkeypatch)
        u = haar_unitary(7, 77)
        result = adaptive_compile(u, path_architecture(7), SearchConfig(return_first=True))
        assert result.stats.nodes_expanded == 0 and result.pulse_count > 0
        assert emitted == [(result.rotation_count, False, True)]
        assert built == [(result.rotation_count, len(result.sequence))]
        assert verify_result(u, result)


def counted_emission(monkeypatch) -> tuple:
    """Wrap the adaptive module's emit and assemble; the returned lists get
    the (steps, undo, fused) of each emission and the (steps, gates) counts
    of each assembly."""
    emitted, built = [], []
    emit, assemble = adaptive_module.emit, adaptive_module.assemble

    def counted_emit(graph, steps, undo, fuse=None):
        emitted.append((len(steps), undo, fuse is not None))
        return emit(graph, steps, undo, fuse)

    def counted_assemble(emission, *args):
        result = assemble(emission, *args)
        built.append((sum(not record[4] for record in emission[1]), len(result.sequence)))
        return result

    monkeypatch.setattr(adaptive_module, "emit", counted_emit)
    monkeypatch.setattr(adaptive_module, "assemble", counted_assemble)
    return emitted, built


def counted_incumbents(monkeypatch) -> list:
    """Count the incumbents the search records as it finds them, in the
    returned list's one entry (the warm start is recorded with its
    emission and not counted)."""
    found = [0]
    record = adaptive_module._Search.record

    def counted_record(self, incumbent, emission=None):
        found[0] += emission is None
        return record(self, incumbent, emission)

    monkeypatch.setattr(adaptive_module._Search, "record", counted_record)
    return found
