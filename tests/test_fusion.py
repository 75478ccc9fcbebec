"""Fusion of a rotation with the routing pulse right after it on the same
level pair: the closed form, adaptive results' costs and placements
against their unfused emission, and the merge rule under other models."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc import adaptive as adaptive_module
from quditc._compile import emit
from quditc.adaptive import SearchConfig, adaptive_compile
from quditc.bench import architectures_for_dim, star_architecture
from quditc.cost import CostParams, pulse_cost, rotation_cost, sequence_cost
from quditc.gates import PULSE_PHI, PULSE_THETA, RotationGate, rotation_matrix
from quditc.graph import CouplingGraph
from quditc.qr import ladder, qr_decompose
from quditc.verify import verify_result

from conftest import haar_unitary


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.0, math.pi), phi=st.floats(-10.0, 10.0))
def test_pulse_after_rotation_is_fused_rotation_then_diagonal(theta, phi):
    # R(pi, PULSE_PHI) . R(theta, phi) = D . R(pi - theta, phi + pi), with D
    # the diagonal that emission deposits into the walk's phases
    pulse = rotation_matrix(RotationGate(0, 1, PULSE_THETA, PULSE_PHI), 2)
    rotation = rotation_matrix(RotationGate(0, 1, theta, phi), 2)
    fused = rotation_matrix(RotationGate(0, 1, math.pi - theta, phi + math.pi), 2)
    z = phi - PULSE_PHI + math.pi
    deposit = np.diag(np.exp(1j * np.array([z, PULSE_PHI - phi + math.pi])))
    assert np.abs(pulse @ rotation - deposit @ fused).max() <= 1e-12


def ring4(dim: int, seed: int) -> CouplingGraph:
    """Four levels on a cycle, dim states at a seeded permutation of them."""
    levels = np.random.default_rng(seed).permutation(4).tolist()
    return CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
                         {str(k): levels[k] for k in range(dim)})


@st.composite
def fusion_cases(draw):
    dim = draw(st.integers(3, 6))
    names = ["path", "star", "bridge"] + (["ring4"] if dim <= 4 else [])
    name = draw(st.sampled_from(names))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = ring4(dim, seed) if name == "ring4" else \
        dict(architectures_for_dim(dim))[f"{name}-{dim}"]
    config = draw(st.sampled_from([SearchConfig(return_first=True), SearchConfig(max_nodes=30),
                                   SearchConfig(max_nodes=300)]))
    return graph, haar_unitary(dim, seed), config


def answer_steps(u, graph, config):
    """(result, steps, undo): an adaptive result and the steps and undo
    flag of the emission it was assembled from."""
    emitted, answer = {}, []
    emit_, assemble_ = adaptive_module.emit, adaptive_module.assemble

    def spy_emit(graph, steps, undo, fuse=None):
        emission = emit_(graph, steps, undo, fuse)
        emitted[id(emission)] = (steps, undo)
        return emission

    def spy_assemble(emission, *args):
        answer.append(emitted[id(emission)])
        return assemble_(emission, *args)

    with mock.patch.object(adaptive_module, "emit", spy_emit), \
            mock.patch.object(adaptive_module, "assemble", spy_assemble):
        result = adaptive_compile(u, graph, config)
    assert len(answer) == 1
    return (result,) + answer[0]


@settings(max_examples=60, deadline=None)
@given(case=fusion_cases())
def test_adaptive_results_fuse_soundly(case):
    graph, u, config = case
    result, steps, undo = answer_steps(u, graph, config)
    assert verify_result(u, result)
    assert result.total_cost == pytest.approx(sequence_cost(result.sequence), rel=1e-12)
    # the same steps emitted unfused: never cheaper (up to the rounding of
    # another order of summation), and to the same placement
    unfused = emit(graph, steps, undo)
    plain = sum(rotation_cost(theta, 1) for _, _, theta, _, _ in unfused[1])
    assert result.total_cost <= plain * (1 + 1e-12)
    assert result.final_graph.logical_map == unfused[0].graph().logical_map
    assert result.rotation_count == len(steps)
    assert result.pulse_count == len(unfused[1]) - len(steps) - result.stats.fused_gates


def test_a_larger_budget_never_costs_more():
    # every new incumbent is a candidate, so the answers of one search
    # under growing budgets cost no more, fused, as the budget grows
    for _, g in architectures_for_dim(5):
        u = haar_unitary(5, 3105)
        costs = [adaptive_compile(u, g, SearchConfig(max_nodes=n)).total_cost
                 for n in (0, 10, 100, 1000)]
        assert costs == sorted(costs, reverse=True)


LINE3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2})


def pair_steps(theta):
    """On LINE3, a rotation on levels (0, 1), then a step whose first
    routing pulse lands on that pair: the candidate of one merge."""
    return [(0, 1, theta, 0.3), (2, 0, 0.7, -0.4)]


def fuse_args(steps, params):
    return ([rotation_cost(t, 1, params) for _, _, t, _ in steps], {}, params,
            pulse_cost(params))


def step_model(theta, dist, params):
    """A model that charges angles strictly between pi / 2 and pi tenfold:
    a pulse, at pi, costs the base, so fusing costs more wherever the
    rotation's angle is below pi / 2."""
    t = abs(theta) / math.pi
    return params.base_factor * dist * (10.0 if 0.5 < t < 1.0 else 1.0)


@pytest.mark.parametrize("theta, merges", [(0.4, 0), (2.5, 1)])
def test_merge_only_where_it_costs_no_more(theta, merges):
    g, params = LINE3, CostParams(model=step_model)
    steps = pair_steps(theta)
    fuse = fuse_args(steps, params)
    walk, records, cost, fused, saved = emit(g, steps, False, fuse)
    plain = emit(g, steps, False)
    # the steps route by 0 and 1 pulses, fused or not: a merged pulse is counted
    assert fused == merges and cost == fuse[0][0] + (fuse[0][1] + fuse[3]) and plain[2] == 0.0
    assert walk.levels == plain[0].levels
    if merges:
        assert records[0][:3] == (0, 1, math.pi - theta) and len(records) == len(plain[1]) - 1
        assert saved == rotation_cost(theta, 1, params) + pulse_cost(params) \
            - rotation_cost(math.pi - theta, 1, params)
    else:
        assert records == plain[1] and saved == 0.0


def test_default_model_fuses_and_saves_per_merge():
    # the default model saves 8 base theta / pi on a merge of a rotation by theta
    g, params, theta = LINE3, CostParams(), 0.4
    steps = pair_steps(theta)
    _, records, _, fused, saved = emit(g, steps, False, fuse_args(steps, params))
    assert fused == 1
    assert records[0][:3] == (0, 1, math.pi - theta) and records[0][4] is False
    assert saved == pytest.approx(8 * params.base_factor * theta / math.pi, rel=1e-12)


def fused_steps(emission, steps) -> set:
    """The indices of the steps whose rotation record was fused."""
    rotations = [record for record in emission[1] if not record[4]]
    return {k for k, (record, step) in enumerate(zip(rotations, steps)) if record[2] != step[2]}


def test_costlier_fusion_leaves_the_pair_unfused():
    # Under step_model a rotation below pi / 2 would cost more fused: of the
    # merges the default model makes in a ladder's one-way replay, exactly
    # those of rotations above pi / 2 are made, and the answer verifies at
    # its priced cost.
    params = CostParams(model=step_model)
    for name, g in architectures_for_dim(5):
        u = haar_unitary(5, 3107)
        steps = ladder(u.conj().T)[0]
        default = fused_steps(emit(g, steps, False, fuse_args(steps, CostParams())), steps)
        custom = fused_steps(emit(g, steps, False, fuse_args(steps, params)), steps)
        assert custom == {k for k in default if steps[k][2] > math.pi / 2}
        if name == "star-5":
            assert custom and custom != default
        result = adaptive_compile(u, g, SearchConfig(return_first=True), params)
        assert verify_result(u, result)
        assert result.total_cost == pytest.approx(sequence_cost(result.sequence, params),
                                                  rel=1e-12)


def test_qr_decompose_stays_unfused():
    # the fixed sequence is the paper's baseline: each routing pulse is
    # emitted and undone, and none merges
    u, g = haar_unitary(7, 3109), star_architecture(7)
    result = qr_decompose(u, g)
    first = adaptive_compile(u, g, SearchConfig(return_first=True))
    assert result.stats is None
    assert result.pulse_count > 0 and first.stats.fused_gates > 0
    assert result.total_cost == pytest.approx(sequence_cost(result.sequence), rel=1e-12)
    assert first.total_cost < result.total_cost


def test_fused_gates_are_counted_in_the_answer():
    u, g = haar_unitary(7, 3111), star_architecture(7)
    result, steps, undo = answer_steps(u, g, SearchConfig(return_first=True))
    plain = emit(g, steps, undo)
    assert result.stats.fused_gates == len(plain[1]) - len(result.sequence) > 0
