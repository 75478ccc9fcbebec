"""Benchmark harness: compile seeded random Clifford sets under both
back-ends across target architectures, serially in this process, and
aggregate min/avg/max costs.

Machine output is line-delimited JSON records plus a CSV summary; the
human table reports costs scaled by 1e4.  Wall times are measured but
kept out of the machine output by default so identical seeds give
byte-identical files.
"""
from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .adaptive import CompilationResult, NoSolutionError, SearchConfig, adaptive_compile
from .clifford import random_cliffords
from .cost import CostParams
from .graph import CouplingGraph
from .qr import qr_decompose
from .verify import verify_result


@dataclass(frozen=True)
class BenchRecord:
    dim: int
    architecture: str
    unitary_index: int
    qr_cost: float
    adaptive_cost: float | None
    qr_rotations: int
    qr_routing_pulses: int
    adaptive_rotations: int | None
    routing_pulses: int | None
    nodes_expanded: int | None
    wall_time_ms: float | None
    status: str
    verified: bool


# -- shipped example architectures -----------------------------------------

def _scrambled_placement(dim: int) -> dict:
    # Out-of-order placement, so logically adjacent states are usually not
    # physically adjacent: state k at level 2k mod n for the odd n = d or
    # d - 1 (a bijection on 0..n-1); at even d, state d-1 keeps level d-1.
    n = dim - 1 + dim % 2
    return {str(k): (2 * k) % n if k < n else k for k in range(dim)}


def path_architecture(dim: int) -> CouplingGraph:
    """Linear chain with an out-of-order logical placement."""
    edges = frozenset((k, k + 1) for k in range(dim - 1))
    return CouplingGraph(dim, edges, _scrambled_placement(dim))


def star_architecture(dim: int) -> CouplingGraph:
    """Hub level 0 coupled to every other level, identity placement."""
    edges = frozenset((0, k) for k in range(1, dim))
    return CouplingGraph(dim, edges, {str(k): k for k in range(dim)})


def bridge_architecture(dim: int) -> CouplingGraph:
    """Path of dim+1 levels closed into a cycle by an ancilla on the last
    level, so routing can shortcut through the ancilla."""
    levels = dim + 1
    edges = set((k, k + 1) for k in range(levels - 1))
    edges.add((0, levels - 1))
    mapping = {str(k): k for k in range(dim)}
    mapping["a0"] = levels - 1
    return CouplingGraph(levels, frozenset(edges), mapping, frozenset({"a0"}))


def architectures_for_dim(dim: int) -> list[tuple[str, CouplingGraph]]:
    return [
        (f"path-{dim}", path_architecture(dim)),
        (f"star-{dim}", star_architecture(dim)),
        (f"bridge-{dim}", bridge_architecture(dim)),
    ]


# -- suite execution --------------------------------------------------------

def _run_instance(dim, arch_id, graph, u, idx, config, params) -> BenchRecord:
    t0 = time.perf_counter()
    qr = qr_decompose(u, graph, params)
    qr_ok = verify_result(u, qr)
    try:
        ad: CompilationResult | None = adaptive_compile(u, graph, config, params)
        status = "ok"
    except NoSolutionError:
        ad = None
        status = "no_solution"
    wall = (time.perf_counter() - t0) * 1000.0
    ad_ok = ad is not None and verify_result(u, ad)
    return BenchRecord(
        dim=dim,
        architecture=arch_id,
        unitary_index=idx,
        qr_cost=qr.total_cost,
        adaptive_cost=None if ad is None else ad.total_cost,
        qr_rotations=qr.rotation_count,
        qr_routing_pulses=qr.pulse_count,
        adaptive_rotations=None if ad is None else ad.rotation_count,
        routing_pulses=None if ad is None else ad.pulse_count,
        nodes_expanded=None if ad is None else ad.stats.nodes_expanded,
        wall_time_ms=wall,
        status=status,
        verified=qr_ok and (ad_ok or ad is None),
    )


def run_suite(dims, counts, graphs, config: SearchConfig = SearchConfig(),
              params: CostParams = CostParams(), seed: int = 0) -> list[BenchRecord]:
    """Compile `counts[i]` seeded Cliffords of each dims[i] on every graph
    whose computational state count matches, under both back-ends, one
    instance at a time.

    `graphs` is a list of (architecture_id, CouplingGraph); records come
    back ordered by (dim, architecture, index).  No dim, or a repeated dim
    or architecture id, raises ValueError.
    """
    if not dims:
        raise ValueError("no dim to compile")
    if len(dims) != len(counts):
        raise ValueError("dims and counts must align")
    if any(count < 1 for count in counts):
        raise ValueError(f"every count must be >= 1, got {list(counts)}")
    for what, values in (("dim", dims), ("architecture id", [aid for aid, _ in graphs])):
        if len(set(values)) != len(values):
            raise ValueError(f"repeated {what} in {values}: it would be compiled twice")
    suites = []  # every input is checked and drawn before the first compile
    for dim, count in zip(dims, counts):
        matching = [(aid, g) for aid, g in graphs if g.num_computational == dim]
        if not matching:
            raise ValueError(f"no architecture with {dim} computational states")
        suites.append((dim, matching, random_cliffords(dim, count, seed)))
    records = []
    for dim, matching, unitaries in suites:
        for aid, g in matching:
            for idx, u in enumerate(unitaries):
                records.append(_run_instance(dim, aid, g, u, idx, config, params))
    return records


def summarize(records) -> list[dict]:
    """Per (dim, architecture) min/avg/max of both algorithms' raw costs.

    Only verified records aggregate; groups that end up empty are omitted.
    """
    groups: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        groups.setdefault((rec.dim, rec.architecture), []).append(rec)
    rows = []
    for (dim, arch), recs in sorted(groups.items()):
        usable = [r for r in recs if r.verified and r.status == "ok"]
        if not usable:
            warnings.warn(f"group ({dim}, {arch}) has no verified records; omitted")
            continue
        qr = np.array([r.qr_cost for r in usable])
        ad = np.array([r.adaptive_cost for r in usable])
        rows.append({
            "dim": dim,
            "architecture": arch,
            "unitaries": len(usable),
            "qr_min": float(qr.min()),
            "qr_avg": float(qr.mean()),
            "qr_max": float(qr.max()),
            "adaptive_min": float(ad.min()),
            "adaptive_avg": float(ad.mean()),
            "adaptive_max": float(ad.max()),
        })
    return rows


def format_table(rows) -> str:
    """Human-readable summary; costs are multiplied by 1e4."""
    header = (
        f"{'dim':>3} {'architecture':<12} {'unitaries':>9} "
        f"{'qr min':>8} {'qr avg':>8} {'qr max':>8} "
        f"{'ad min':>8} {'ad avg':>8} {'ad max':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['dim']:>3} {row['architecture']:<12} {row['unitaries']:>9} "
            f"{row['qr_min'] * 1e4:>8.2f} {row['qr_avg'] * 1e4:>8.2f} {row['qr_max'] * 1e4:>8.2f} "
            f"{row['adaptive_min'] * 1e4:>8.2f} {row['adaptive_avg'] * 1e4:>8.2f} "
            f"{row['adaptive_max'] * 1e4:>8.2f}"
        )
    return "\n".join(lines)


def write_records(records, path: str | Path, include_timings: bool = False) -> None:
    """NDJSON records; timings are excluded unless asked for, keeping the
    file byte-identical across runs with the same seed."""
    with open(path, "w") as fh:
        for rec in records:
            doc = asdict(rec)
            if not include_timings:
                doc.pop("wall_time_ms")
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")


def write_summary_csv(rows, path: str | Path) -> None:
    fields = ["dim", "architecture", "unitaries", "qr_min", "qr_avg", "qr_max",
              "adaptive_min", "adaptive_avg", "adaptive_max"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
