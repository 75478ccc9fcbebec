"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible with `pytest -s`).  Run as:

    pytest tests/test_acceptance.py -v -s
"""
import math
import time

import numpy as np
import pytest

from quditc.adaptive import SearchConfig, adaptive_compile
from quditc.bench import architectures_for_dim, path_architecture, run_suite, write_records
from quditc.clifford import random_cliffords
from quditc.cost import rotation_cost
from quditc.gates import RotationGate, conjugated, rotation_matrix, sequence_matrix
from quditc.graph import CouplingGraph, embedding_matrix
from quditc.linalg import max_norm
from quditc.qr import qr_decompose
from quditc.verify import verify_result

from conftest import haar_unitary
from test_adaptive import exhaustive_min_cost
from test_graph import master_property_error, random_connected_graph, random_raw_sequence

SEARCH = SearchConfig(max_nodes=1500)


def report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def bench_records():
    """Shared benchmark run over the shipped architectures."""
    graphs = architectures_for_dim(3) + architectures_for_dim(5)
    return run_suite([3, 5], [25, 10], graphs, SEARCH, seed=20260809)


def test_01_reconstruction_soundness():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, count in ((3, 200), (5, 200), (7, 50)):
        graph = path_architecture(dim)
        for u in random_cliffords(dim, count, seed=42):
            for result in (qr_decompose(u, graph), adaptive_compile(u, graph, SEARCH)):
                phys = sequence_matrix(result.sequence, graph.num_levels)
                lhs = phys @ embedding_matrix(result.initial_graph, dim) \
                    @ np.diag(np.exp(1j * result.residual_phases))
                rhs = embedding_matrix(result.final_graph, dim) @ u
                worst = max(worst, max_norm(lhs - rhs))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-8 and elapsed < 300,
           f"reconstruction of 2x(200+200+50) compilations, worst error "
           f"{worst:.2e}, {elapsed:.0f}s")


def test_02_direct_coupling_optimality(ring4):
    u = rotation_matrix(RotationGate(0, 3, 2.1, 0.4), 4)
    ad = adaptive_compile(u, ring4, SearchConfig(max_nodes=50_000))
    qr = qr_decompose(u, ring4)
    qr_pairs = {(g.level_low, g.level_high) for g in qr.sequence}
    ok = (
        ad.rotation_count == 1
        and ad.pulse_count == 0
        and qr_pairs == {(2, 3), (1, 2), (0, 1)}
        and ad.total_cost < qr.total_cost
        and verify_result(u, ad)
        and verify_result(u, qr)
    )
    report(2, ok,
           f"direct 0-3 coupling: adaptive 1 rotation/0 pulses at {ad.total_cost:.2e} "
           f"vs fixed sequence on 3 couplings at {qr.total_cost:.2e}")


def test_03_cost_limit_soundness(bench_records):
    violations = [
        rec for rec in bench_records
        if rec.status != "ok" or not rec.verified
        or rec.adaptive_cost > 1.1 * rec.qr_cost + 1e-15
    ]
    report(3, not violations,
           f"adaptive <= 1.1 x baseline on all {len(bench_records)} suite instances, "
           f"{len(violations)} violations")


def test_04_average_improvement():
    graph = path_architecture(3)
    qr_costs, ad_costs = [], []
    for u in random_cliffords(3, 100, seed=7):
        qr_costs.append(qr_decompose(u, graph).total_cost)
        ad_costs.append(adaptive_compile(u, graph, SEARCH).total_cost)
    mean_qr, mean_ad = np.mean(qr_costs), np.mean(ad_costs)
    report(4, mean_ad <= 0.9 * mean_qr,
           f"mean cost over 100 dim-3 unitaries on the path architecture: "
           f"{mean_ad * 1e4:.2f} vs {mean_qr * 1e4:.2f} "
           f"({(1 - mean_ad / mean_qr):.0%} improvement)")


def test_05_cost_function_point_checks():
    checks = [
        (math.pi, 4e-4),
        (math.pi / 2, 2e-4),
        (0.3 * math.pi, 1.4e-4),
    ]
    ok = all(rotation_cost(theta, 1) == pytest.approx(expected, rel=1e-12)
             for theta, expected in checks)
    report(5, ok, "rotation cost at pi, pi/2, 0.3*pi equals 4e-4, 2e-4, 1.4e-4")


def test_06_commutation_identity():
    rng = np.random.default_rng(61)
    worst = 0.0
    for dim in (3, 5):
        for _ in range(50):
            lo, hi = sorted(int(x) for x in rng.choice(dim, size=2, replace=False))
            gate = RotationGate(lo, hi, float(rng.uniform(0, np.pi)),
                                float(rng.uniform(-np.pi, np.pi)))
            phases = rng.uniform(-np.pi, np.pi, size=dim)
            diag = np.diag(np.exp(1j * phases))
            lhs = diag @ rotation_matrix(gate, dim)
            rhs = rotation_matrix(conjugated(gate, phases), dim) @ diag
            worst = max(worst, max_norm(lhs - rhs))
    report(6, worst <= 1e-12,
           f"phase-layer commutation on 100 random instances, worst error {worst:.2e}")


def test_07_graph_rule_semantics():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(100):
        num_levels = int(rng.integers(4, 6))
        edges = random_connected_graph(num_levels, rng)
        n_states = int(rng.integers(3, num_levels + 1))
        levels = rng.choice(num_levels, size=n_states, replace=False)
        mapping = {str(k): int(levels[k]) for k in range(n_states)}
        phases = tuple(float(x) for x in rng.uniform(-np.pi, np.pi, size=num_levels))
        graph = CouplingGraph(num_levels, edges, mapping, node_phase=phases)
        raw = random_raw_sequence(graph, rng, int(rng.integers(2, 7)))
        worst = max(worst, master_property_error(raw, graph))
    report(7, worst < 1e-9,
           f"rule-adjusted sequences reproduce the routed logical intent on "
           f"100 random instances, worst error {worst:.2e}")


def test_08_small_instance_optimality(path3):
    cfg = SearchConfig(max_nodes=10_000_000, max_depth=4)
    worst = 0.0
    for seed in range(25):
        u = haar_unitary(3, 8000 + seed)
        oracle = exhaustive_min_cost(u, path3, max_depth=4)
        found = adaptive_compile(u, path3, cfg).total_cost
        worst = max(worst, abs(found - oracle))
    report(8, worst <= 1e-9,
           f"search matches exhaustive depth-4 minimum on 25 dim-3 unitaries, "
           f"worst gap {worst:.2e}")


def test_09_diagonal_fast_path(path3):
    rng = np.random.default_rng(91)
    ok = True
    graphs = {3: path3, 5: path_architecture(5)}
    for dim in (3, 5):
        for _ in range(5):
            u = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim)))
            qr = qr_decompose(u, graphs[dim])
            ad = adaptive_compile(u, graphs[dim], SEARCH)
            for result in (qr, ad):
                ok = ok and result.sequence == () and result.total_cost == 0.0 \
                    and verify_result(u, result, 1e-12)
    report(9, ok, "diagonal unitaries compile to empty sequences at exactly zero cost")


def test_10_determinism(tmp_path):
    graphs = architectures_for_dim(3)
    paths = []
    for name in ("first", "second"):
        records = run_suite([3], [10], graphs, SEARCH, seed=555)
        path = tmp_path / f"{name}.ndjson"
        write_records(records, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(10, identical, "identical seeds give byte-identical record files")
