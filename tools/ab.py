#!/usr/bin/env python3
"""In-process A/B timing of two quditc source trees.

Run from the repository root:

    python3 tools/ab.py --a ../parent --b . --workload haar31-first --seed 1 --rounds 10

Each of --a and --b is a checkout whose ``src/quditc`` is imported in this
one process, under the package names ``quditc_a`` and ``quditc_b``; their
relative imports resolve within each copy, so the two share no module and
no cache.  The inputs are this checkout's ``benchmark/workloads.py``
workload, built once as plain numpy arrays; each side compiles them on its
own shipped architectures under the workload's search settings.

Every round compiles each instance once on each side, back to back, and
flips which side goes first from one round to the next, so that a drift in
host speed falls on both sides alike.  The report is one JSON object:

  * ``records_identical``: every instance gave the same result on both
    sides, bit for bit: gates, residual phases, cost, every ``SearchStats``
    field but ``wall_time_ms``, and the final graph's ``logical_map``;
  * per architecture, the ratio B / A of the summed per-instance minimum
    times over the rounds, with a 95% bootstrap interval over instances;
  * ``ratio_geomean``: the geometric mean of the architectures' ratios.

It times end to end only: benchmark/tracing.py wraps ``quditc.*`` bindings.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads its BLAS, as benchmark/run.py sets it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BOOTSTRAP_SAMPLES = 1000


def load_tree(root: Path, name: str):
    """root/src/quditc imported as the package ``name``."""
    init = root / "src" / "quditc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no quditc sources under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.bench")
    return package


def load_workloads(quditc):
    """benchmark/workloads.py, importing ``quditc`` as the given package."""
    aliases = {"quditc": quditc, "quditc.bench": quditc.bench}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            "quditc_ab_workloads", ROOT / "benchmark" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, module_before in saved.items():
            if module_before is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module_before
    return module.WORKLOADS


def fingerprint(result) -> str:
    """A digest of everything a result carries, bit for bit: the gates, the
    residual phases, the cost, every SearchStats field but the wall time
    (floats by their hex form) and the final graph's logical_map."""
    if isinstance(result, str):
        return result
    stats = {field.name: getattr(result.stats, field.name)
             for field in dataclasses.fields(result.stats) if field.name != "wall_time_ms"}
    logical_map = result.final_graph.logical_map
    doc = [[[g.level_low, g.level_high, g.theta.hex(), g.phi.hex(), g.routing]
            for g in result.sequence],
           [float(p).hex() for p in result.residual_phases],
           result.total_cost.hex(),
           {name: value.hex() if isinstance(value, float) else value
            for name, value in stats.items()},
           {str(state): int(level) for state, level in logical_map.items()}]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Side:
    def __init__(self, package, workload):
        self.compile = package.adaptive.adaptive_compile
        self.config = package.SearchConfig(**workload.search)
        self.archs = package.bench.architectures_for_dim(workload.dim)

    def run(self, arch: int, u):
        """(seconds, fingerprint) of one compile."""
        graph = self.archs[arch][1]
        start = time.perf_counter()
        try:
            result = self.compile(u, graph, self.config)
        except Exception as exc:  # recorded by type, as benchmark/run.py does
            result = type(exc).__name__
        return time.perf_counter() - start, fingerprint(result)


def ratio_with_interval(a_min, b_min, seed: int):
    """sum(b) / sum(a) over instances, and its 95% bootstrap interval."""
    a, b = np.asarray(a_min), np.asarray(b_min)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(a), size=(BOOTSTRAP_SAMPLES, len(a)))
    samples = b[picks].sum(axis=1) / a[picks].sum(axis=1)
    low, high = np.quantile(samples, [0.025, 0.975])
    return float(b.sum() / a.sum()), [float(low), float(high)]


def compare(sides, workload, seed: int, rounds: int, per_arch: int | None) -> dict:
    unitaries = workload.unitaries(seed, per_arch)
    names = [name for name, _ in sides[0].archs]
    cases = [(arch, index) for index in range(len(unitaries)) for arch in range(len(names))]
    for side in sides:  # one untimed pass: imports, caches and first-call costs
        side.run(0, workload.warmup(seed))
    times = {(s, case): [] for s in range(2) for case in cases}
    prints = [{}, {}]
    for k in range(rounds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for case in cases:
            for s in order:
                seconds, digest = sides[s].run(case[0], unitaries[case[1]])
                times[s, case].append(seconds)
                prints[s].setdefault(case, set()).add(digest)
    identical = all(len(prints[0][c]) == 1 and prints[0][c] == prints[1][c] for c in cases)
    per_arch_report = {}
    for arch, name in enumerate(names):
        mins = [[min(times[s, c]) for c in cases if c[0] == arch] for s in range(2)]
        value, interval = ratio_with_interval(*mins, seed)
        per_arch_report[name] = {"ratio": value, "interval_95": interval,
                                 "a_min_ms": 1e3 * sum(mins[0]) / len(mins[0]),
                                 "b_min_ms": 1e3 * sum(mins[1]) / len(mins[1])}
    geomean = math.exp(sum(math.log(r["ratio"]) for r in per_arch_report.values())
                       / len(per_arch_report))
    return {"records_identical": identical, "ratio_geomean": geomean,
            "architectures": per_arch_report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout timed as side A")
    parser.add_argument("--b", type=Path, required=True, help="checkout timed as side B")
    parser.add_argument("--workload", required=True, help="a benchmark/workloads.py name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=5, help="timed compiles per instance and side")
    parser.add_argument("--instances", type=int, default=None,
                        help="instances per architecture (default: the workload's)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.instances is not None and args.instances < 1):
        parser.error("--rounds and --instances must be >= 1")
    packages = [load_tree(args.a.resolve(), "quditc_a"), load_tree(args.b.resolve(), "quditc_b")]
    workloads = load_workloads(packages[0])
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    workload = workloads[args.workload]
    sides = [Side(package, workload) for package in packages]
    report = {"a": str(args.a), "b": str(args.b), "workload": args.workload, "seed": args.seed,
              "rounds": args.rounds,
              "instances_per_arch": args.instances or workload.per_arch}
    report.update(compare(sides, workload, args.seed, args.rounds, args.instances))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
