"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q benchmark/selftest.py

They check that the oracle rejects tampered results, that the printed
metric names and units are the ones BENCHMARK.json declares, and that a
minimal run of every workload completes without a failure.
"""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, haar_unitary  # noqa: E402

from quditc import SearchConfig, adaptive_compile, qr_decompose  # noqa: E402
from quditc.bench import path_architecture  # noqa: E402


@pytest.fixture(scope="module")
def compiled():
    """A routed d=5 compilation: the path placement forces routing pulses."""
    u = haar_unitary(5, np.random.default_rng(7))
    graph = path_architecture(5)
    qr = qr_decompose(u, graph)
    result = adaptive_compile(u, graph, SearchConfig(max_nodes=200))
    out = oracle.Output.of(result)
    assert out.initial_map != out.final_map
    return u, out, 1.1 * qr.total_cost


def test_oracle_accepts_compiler_output(compiled):
    u, out, limit = compiled
    assert oracle.check(u, out, limit) is None


def test_oracle_rejects_shifted_phi(compiled):
    u, out, limit = compiled
    i, j, theta, phi = out.gates[0]
    gates = ((i, j, theta, phi + 1e-3),) + out.gates[1:]
    assert "reconstruction" in oracle.check(u, dataclasses.replace(out, gates=gates), limit)


def test_oracle_rejects_dropped_gate(compiled):
    u, out, limit = compiled
    k = len(out.gates) // 2
    tampered = dataclasses.replace(out, gates=out.gates[:k] + out.gates[k + 1:])
    assert oracle.check(u, tampered, limit) is not None


def test_oracle_rejects_swapped_final_map(compiled):
    u, out, limit = compiled
    final = dict(out.final_map)
    final["0"], final["1"] = final["1"], final["0"]
    tampered = dataclasses.replace(out, final_map=final)
    assert "reconstruction" in oracle.check(u, tampered, limit)


def test_oracle_rejects_cost_above_limit(compiled):
    u, out, limit = compiled
    assert "above limit" in oracle.check(u, out, oracle.sequence_cost(out.gates) * 0.99)


def test_oracle_cost_matches_paper_point_values():
    # t = 1/2 sits on the calibrated angle (no penalty); t = 1/4 pays 1/4.
    assert math.isclose(oracle.rotation_cost(math.pi / 2), 1e-4 * 2.0)
    assert math.isclose(oracle.rotation_cost(math.pi / 4), 1e-4 * (1.0 + 0.25))


def test_declared_metrics_match_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_minimal_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--instances", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
