"""Command-line interface.

Subcommands:
  compile   decompose a unitary file onto a graph file (adaptive or qr)
  bench     run the benchmark suite and write records/CSV
  verify    check a sequence file against a unitary file
  arch      dump the shipped example architectures as graph files

Exit codes: 0 success, 1 verification failure / unexpected error,
2 invalid input (including an output path that cannot be written),
3 no solution within the search budget.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .adaptive import NoSolutionError, SearchConfig, adaptive_compile
from .bench import (
    architectures_for_dim,
    format_table,
    run_suite,
    summarize,
    write_records,
    write_summary_csv,
)
from .cost import CostParams
from .gates import save_sequence
from .graph import load_graph, save_graph
from .linalg import VERIFY_TOL, load_unitary
from .qr import qr_decompose
from .verify import verify_sequence_document

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NO_SOLUTION = 3


def _add_cost_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file with cost.* keys")
    parser.add_argument("--cost-base-factor", type=float, help="override cost.base_factor")
    parser.add_argument("--cost-calibrated-angle", type=float,
                        help="override cost.calibrated_angle (units of pi)")


_COST_KEYS = ("base_factor", "calibrated_angle")


def _cost_params(args) -> CostParams:
    """CostParams from the defaults, then the config file's cost.* keys,
    then the --cost-* flags."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        section = doc.get("cost", {}) if isinstance(doc, dict) else None
        if not isinstance(section, dict) or not set(section) <= set(_COST_KEYS):
            raise ValueError(f"config file {args.config}: expected an object whose 'cost' "
                             f"entry is an object with keys among {_COST_KEYS}")
        values.update(section)
    for key in _COST_KEYS:
        if getattr(args, f"cost_{key}") is not None:
            values[key] = getattr(args, f"cost_{key}")
    try:
        return CostParams(**{key: float(v) for key, v in values.items()})
    except (TypeError, OverflowError):
        raise ValueError(f"bad cost parameters {values}") from None


def _search_config(args) -> SearchConfig:
    """SearchConfig from the flags named after its fields; a field whose
    flag is absent, or not offered by the subcommand, keeps its default."""
    return SearchConfig(**{f.name: getattr(args, f.name)
                           for f in fields(SearchConfig) if hasattr(args, f.name)})


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def cmd_compile(args) -> int:
    u = load_unitary(args.unitary)
    graph = load_graph(args.graph)
    params = _cost_params(args)
    config = _search_config(args)
    try:
        result = qr_decompose(u, graph, params) if args.mode == "qr" \
            else adaptive_compile(u, graph, config, params)
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION

    if args.out:
        save_sequence(
            args.out,
            result.sequence,
            graph.num_levels,
            virtual_phases=result.residual_phases,
            extra={
                "initial_map": dict(result.initial_graph.logical_map),
                "final_map": dict(result.final_graph.logical_map),
                "total_cost": result.total_cost,
            },
        )
    summary = {
        "mode": args.mode,
        "total_cost": result.total_cost,
        "rotations": result.rotation_count,
        "routing_pulses": result.pulse_count,
    }
    if result.stats is not None:
        summary.update(asdict(result.stats))
        if not math.isfinite(summary["cost_limit"]):
            summary["cost_limit"] = None  # no limit
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return EXIT_OK


def cmd_bench(args) -> int:
    params = _cost_params(args)
    dims = [int(x) for x in args.dims.split(",") if x]
    counts = [int(x) for x in args.counts.split(",") if x]
    if args.graphs:
        graphs = [(Path(path).stem, load_graph(path)) for path in args.graphs.split(",")]
    else:
        graphs = [arch for dim in sorted(set(dims)) for arch in architectures_for_dim(dim)]
    records = run_suite(dims, counts, graphs, _search_config(args), params,
                        seed=args.seed, workers=args.workers, word_length=args.word_length)
    rows = summarize(records)
    if args.records:
        write_records(records, args.records, include_timings=args.include_timings)
    if args.csv:
        write_summary_csv(rows, args.csv)
    print(format_table(rows))
    failures = sum(1 for r in records if r.status != "ok" or not r.verified)
    if failures:
        print(f"{failures} instance(s) failed or did not verify", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    u = load_unitary(args.unitary)
    with open(args.sequence) as fh:
        doc = json.load(fh)
    ok = verify_sequence_document(u, doc, tol=args.tol)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_arch(args) -> int:
    archs = architectures_for_dim(args.dim)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for arch_id, graph in archs:
        path = outdir / f"{arch_id}.json"
        save_graph(graph, path)
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quditc",
                                     description="single-qudit unitary compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="decompose one unitary")
    p.add_argument("--unitary", required=True, type=Path)
    p.add_argument("--graph", required=True, type=Path)
    p.add_argument("--mode", choices=("adaptive", "qr"), default="adaptive")
    # search flags left out set no attribute: _search_config keeps the defaults
    search = p.add_argument_group("search", argument_default=argparse.SUPPRESS)
    search.add_argument("--cost-limit-factor", type=float)
    search.add_argument("--cost-limit", type=float,
                        help="absolute cost limit (overrides the factor)")
    search.add_argument("--max-nodes", type=int)
    search.add_argument("--max-depth", type=int)
    search.add_argument("--return-first", type=_bool)
    search.add_argument("--warm-start", type=_bool)
    p.add_argument("--out", type=Path, help="write the sequence file here")
    _add_cost_args(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("bench", help="run the benchmark suite")
    p.add_argument("--dims", default="3,5,7")
    p.add_argument("--counts", default="100,100,50")
    p.add_argument("--graphs", default=None,
                   help="comma-separated graph files (default: shipped architectures)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--word-length", type=int, default=12)
    search = p.add_argument_group("search", argument_default=argparse.SUPPRESS)
    search.add_argument("--cost-limit-factor", type=float)
    search.add_argument("--max-nodes", type=int, default=5000)  # a bench-sized budget
    p.add_argument("--csv", type=Path, help="summary CSV path")
    p.add_argument("--records", type=Path, help="NDJSON records path")
    p.add_argument("--include-timings", action="store_true",
                   help="keep wall times in the records file (breaks reproducibility)")
    _add_cost_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check a sequence file against a unitary")
    p.add_argument("--unitary", required=True, type=Path)
    p.add_argument("--sequence", required=True, type=Path)
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("arch", help="dump shipped architectures as graph files")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_arch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
