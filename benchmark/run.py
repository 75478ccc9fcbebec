#!/usr/bin/env python3
"""quditc benchmark: compile latency, cost at budget and failures.

Run from the repository root:

    python3 benchmark/run.py --workload clifford7-budget --seed 1 --seconds 40 --trace 0

One run is one fresh process on one workload (see workloads.py) with no
worker processes or threads.  It sets up (imports, input generation,
architectures, one untimed warm-up compile per architecture; repeated
SETUP_REPEATS times), then compiles the workload's instances on every
architecture until ``--seconds`` have passed.  The first round over the
instances is always completed; it fixes the deterministic outputs, whose
digest and cost ratio are reported.  Later rounds repeat the same inputs
for more timing samples and must reproduce the first round's outputs.
Every output, and every qr baseline it is compared with, is checked by the
independent oracle in oracle.py.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` compiles each
instance twice, untraced and traced (tracing.py), prints the per-layer
metrics and the tracing overhead, and writes the spans to
``.bench_trace/<workload>-seed<seed>.json`` under the repository root.
Times are reported at reference speed: divided by the slowdown that
speed.py measures between timed calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the records digest, the times as measured, the slowdowns and the
machine facts.  The exit code is 0 when a result was printed, whether or
not it is correct.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PROBES_BETWEEN_SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "compile_ms.p50": "ms",
    "compile_ms.p90": "ms",
    "instances_per_s": "1/s",
    "cost_ratio.geomean": "ratio",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "compile.annihilation_angles.calls": "count",
    "compile.annihilation_angles.self_ms": "ms",
    "cost.rotation_cost.calls": "count",
    "cost.rotation_cost.self_ms": "ms",
    "linalg.is_diagonal.calls": "count",
    "linalg.is_diagonal.self_ms": "ms",
    "compile.apply_rotation_rows.calls": "count",
    "compile.apply_rotation_rows.self_ms": "ms",
    "compile.emit_rotation.calls": "count",
    "compile.emit_rotation.total_ms": "ms",
    "graph.plan_routing.calls": "count",
    "graph.pulses_planned": "count",
    "graph.topology_cache.hit_ratio": "ratio",
    "linalg.is_unitary.self_ms": "ms",
    "qr.qr_cost_bound.total_ms": "ms",
    "compile.assemble.total_ms": "ms",
    "phases.conjugated.calls": "count",
    "adaptive._ladder_replay.total_ms": "ms",
    "adaptive.adaptive_compile.self_ms": "ms",
    "adaptive.nodes_mean": "count",
    "adaptive.budget_hit_frac": "ratio",
    "adaptive.solutions_mean": "count",
    "adaptive.max_depth_mean": "count",
    "adaptive.us_per_node": "us",
    "adaptive.children_per_node": "count",
    "adaptive.emit_per_score": "ratio",
    "adaptive.beats_qr_frac": "ratio",
    "adaptive.rotations_mean": "count",
    "adaptive.pulses_mean": "count",
    "qr.qr_decompose.total_ms": "ms",
    "qr.rotations_mean": "count",
    "qr.pulses_mean": "count",
    "verify.verify_result.total_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class OracleMismatch(Exception):
    """An output the independent oracle rejected."""


class Nondeterministic(Exception):
    """A repeated compilation whose outputs differ from the first one."""


def parse_args(argv):
    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from workloads.py")
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=positive)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--instances", type=positive, default=None,
                        help="measured instances per architecture (default: the workload's)")
    return parser.parse_args(argv)


def load_compiler():
    """Import quditc from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "quditc" / "__init__.py").is_file():
        raise SystemExit(f"error: no quditc sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import quditc

    if Path(quditc.__file__).resolve().parent != (src / "quditc").resolve():
        raise SystemExit(f"error: imported quditc from {quditc.__file__}, not {src}")
    for name in ("adaptive", "qr", "verify", "graph", "bench"):
        importlib.import_module(f"quditc.{name}")
    return quditc


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Runner:
    def __init__(self, quditc, oracle, tracing, probe, workload, seed, per_arch):
        self.q = quditc
        self.probe = probe
        self.oracle = oracle
        self.tracing = tracing
        self.workload = workload
        self.seed = seed
        self.per_arch = per_arch
        self.config = workload.config
        self.failures = Counter()
        self.reported = set()

    # -- set-up ----------------------------------------------------------

    def setup(self):
        """Generate inputs, build the architectures and warm up once per
        architecture, SETUP_REPEATS times, with speed probes around each.
        Returns (median seconds, the slowdown over set-up, whether every
        repeat's warm-up gave the same outputs)."""
        seconds, warmups = [], []
        for repeat in range(SETUP_REPEATS + 1):
            for _ in range(PROBES_BETWEEN_SETUPS):
                self.probe.sample()
            if repeat == SETUP_REPEATS:
                break
            start = time.perf_counter()
            unitaries = self.workload.unitaries(self.seed, self.per_arch)
            warmup = self.workload.warmup(self.seed)
            archs = self.workload.architectures()
            warm = [self.fingerprint(self.compile(warmup, graph)) for _, graph in archs]
            seconds.append(time.perf_counter() - start)
            warmups.append(warm)
        self.cases = [(arch, graph, index, u)
                      for index, u in enumerate(unitaries) for arch, graph in archs]
        self.archs = [arch for arch, _ in archs]
        return (statistics.median(seconds), self.probe.slowdown(),
                all(w == warmups[0] for w in warmups))

    def compile(self, u, graph):
        try:
            return self.q.adaptive.adaptive_compile(u, graph, self.config)
        except Exception as exc:  # recorded by type; the run goes on
            self.report(exc)
            return type(exc).__name__

    def fingerprint(self, result):
        if isinstance(result, str):
            return {"status": result}
        return {"status": "ok", "cost": result.total_cost, "rotations": result.rotation_count,
                "pulses": result.pulse_count, "nodes": result.stats.nodes_expanded}

    # -- one instance ----------------------------------------------------

    def solve(self, case, baseline=None, tracer=None):
        """Compile one instance and check it.  ``baseline`` is the qr
        record from an earlier round; without it qr_decompose runs (and is
        checked) first.  Returns (record, compile seconds, result); the
        seconds are None when the compile was not reached."""
        arch, graph, index, u = case
        record = {"arch": arch, "index": index}
        result, seconds = None, None
        try:
            with self.tracing.installed(tracer) if tracer else nullcontext():
                if baseline is None:
                    qr = self.q.qr.qr_decompose(u, graph)
                start = time.perf_counter()
                try:
                    result = self.q.adaptive.adaptive_compile(u, graph, self.config)
                finally:
                    seconds = time.perf_counter() - start
                if tracer:
                    self.q.verify.verify_result(u, result)
            if baseline is None:
                reason = self.oracle.check(u, self.oracle.Output.of(qr))
                if reason:
                    raise OracleMismatch(f"qr baseline: {reason}")
                baseline = {"qr_cost": qr.total_cost, "qr_rotations": qr.rotation_count,
                            "qr_pulses": qr.pulse_count}
            record.update(baseline)
            record.update(self.fingerprint(result))
            limit = self.config.cost_limit_factor * baseline["qr_cost"]
            reason = self.oracle.check(u, self.oracle.Output.of(result), limit)
            if reason:
                raise OracleMismatch(reason)
        except Exception as exc:  # recorded by type; the run goes on
            self.report(exc)
            record["status"] = type(exc).__name__
        return record, seconds, result

    def report(self, exc):
        name = type(exc).__name__
        self.failures[name] += 1
        if name not in self.reported:  # one traceback per failure type
            self.reported.add(name)
            traceback.print_exception(exc, file=sys.stderr)

    # -- measurement -----------------------------------------------------

    def measure(self, seconds):
        """Untraced rounds until ``seconds`` have passed, the first round
        always whole.  Returns (first-round records, compile seconds of
        every attempt by (architecture, index), attempted, passed)."""
        deadline = time.perf_counter() + seconds
        first, times = {}, {}
        attempted = passed = 0
        for rnd in itertools.count():
            for case in self.cases:
                if rnd and time.perf_counter() >= deadline:
                    return list(first.values()), times, attempted, passed
                key = (case[0], case[2])
                earlier = first.get(key)
                baseline = None
                if earlier and "qr_cost" in earlier:
                    baseline = {k: earlier[k] for k in ("qr_cost", "qr_rotations", "qr_pulses")}
                record, elapsed, _ = self.solve(case, baseline)
                self.probe.poll()
                if earlier is not None and record != earlier and record["status"] == "ok":
                    self.report(Nondeterministic(f"{key}: {record} != {earlier}"))
                    record["status"] = Nondeterministic.__name__
                attempted += 1
                passed += record["status"] == "ok"
                if elapsed is not None:
                    times.setdefault(key, []).append(elapsed)
                first.setdefault(key, record)

    def measure_traced(self, seconds):
        """Alternate an untraced and a traced compile of each instance until
        ``seconds`` have passed (at least one instance per architecture)."""
        tracer = self.tracing.Tracer()
        deadline = time.perf_counter() + seconds
        untraced, traced, done = [], [], []
        attempted = passed = 0
        while attempted < len(self.archs) or time.perf_counter() < deadline:
            case = self.cases[attempted % len(self.cases)]
            start = time.perf_counter()
            self.compile(case[3], case[1])
            untraced.append(time.perf_counter() - start)
            tracer.instance = f"{case[0]}#{case[2]}/{attempted}"
            record, elapsed, result = self.solve(case, tracer=tracer)
            self.probe.poll()
            attempted += 1
            passed += record["status"] == "ok"
            if elapsed is not None:
                traced.append(elapsed)
            done.append((record, result))
        return tracer, untraced, traced, done, attempted, passed

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, setup_s, setup_slowdown, slowdown, records, times, attempted, passed):
        """(times as measured, metrics with times at reference speed).

        An instance's compile time is the mean of its attempts: each
        instance weighs the same however often a partial last round repeated
        it, and a mean, like the slowdown, averages over the machine's fast
        and slow phases where a median jumps between them.
        compile_ms.p50 is the geometric mean over architectures of each one's
        median: pooled, the median falls between the architectures' clusters
        of compile times and swings with the instance mix.  compile_ms.p90 is
        pooled, so that at least ten instances lie beyond it."""
        per_instance = {key: statistics.fmean(ts) for key, ts in times.items()}
        by_arch = {}
        for (arch, _), t in per_instance.items():
            by_arch.setdefault(arch, []).append(t)
        medians = [statistics.median(ts) for ts in by_arch.values()]
        measured = {
            "setup_s": setup_s,
            "compile_ms.p50": math.exp(mean([math.log(t) for t in medians])) * 1e3,
            "compile_ms.p90": statistics.quantiles(per_instance.values(), n=10)[-1] * 1e3,
            "instances_per_s": ratio(passed, sum(sum(ts) for ts in times.values())),
        }
        logs = [math.log(r["cost"] / r["qr_cost"]) for r in records if r["status"] == "ok"]
        return measured, {
            "setup_s": setup_s / setup_slowdown,
            "compile_ms.p50": measured["compile_ms.p50"] / slowdown,
            "compile_ms.p90": measured["compile_ms.p90"] / slowdown,
            "instances_per_s": measured["instances_per_s"] * slowdown,
            "cost_ratio.geomean": math.exp(mean(logs)),
            "verified_frac": passed / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(self, tracer, untraced, traced, done):
        top = "adaptive.adaptive_compile"
        n = len(done)
        ok = [(rec, res) for rec, res in done if rec["status"] == "ok"]
        m = {}
        for name in ("compile.annihilation_angles", "cost.rotation_cost",
                     "linalg.is_diagonal", "compile.apply_rotation_rows"):
            m[f"{name}.calls"] = tracer.calls(top, name) / n
            m[f"{name}.self_ms"] = tracer.self_s(top, name) * 1e3 / n
        m["compile.emit_rotation.calls"] = tracer.calls(top, "compile.emit_rotation") / n
        for name in ("compile.emit_rotation", "qr.qr_cost_bound", "compile.assemble",
                     "adaptive._ladder_replay"):
            m[f"{name}.total_ms"] = tracer.total_s(top, name) * 1e3 / n
        m["graph.plan_routing.calls"] = tracer.calls(top, "graph.plan_routing") / n
        m["graph.pulses_planned"] = tracer.tallies.get((top, "graph.pulses_planned"), 0) / n
        cache = self.q.graph._topology.cache_info()
        m["graph.topology_cache.hit_ratio"] = ratio(cache.hits, cache.hits + cache.misses)
        m["linalg.is_unitary.self_ms"] = tracer.self_s(top, "linalg.is_unitary") * 1e3 / n
        m["phases.conjugated.calls"] = tracer.calls(top, "phases.conjugated") / n
        m["adaptive.adaptive_compile.self_ms"] = tracer.self_s(top, top, None) * 1e3 / n

        stats = [res.stats for _, res in ok]
        nodes = [s.nodes_expanded for s in stats]
        m["adaptive.nodes_mean"] = mean(nodes)
        m["adaptive.budget_hit_frac"] = mean([k >= self.config.max_nodes for k in nodes])
        m["adaptive.solutions_mean"] = mean([s.solutions_found for s in stats])
        m["adaptive.max_depth_mean"] = mean([s.max_depth for s in stats])
        # Search time: the span minus validation, the qr bound and assemble
        # (the warm-start replay stays in).  An instance that expands no
        # node counts as one, so with return_first this is the replay time.
        outside = sum(tracer.total_s(top, name, top)
                      for name in ("linalg.is_unitary", "qr.qr_cost_bound", "compile.assemble"))
        search_s = tracer.total_s(top, top, None) - outside
        m["adaptive.us_per_node"] = search_s * 1e6 / max(sum(max(k, 1) for k in nodes), 1)
        emitted = tracer.calls(top, "compile.emit_rotation", top)
        scored = tracer.calls(top, "compile.annihilation_angles", top)
        m["adaptive.children_per_node"] = ratio(emitted, sum(nodes))
        m["adaptive.emit_per_score"] = ratio(emitted, scored)
        m["adaptive.beats_qr_frac"] = mean([rec["cost"] < rec["qr_cost"] for rec, _ in ok])
        for key in ("rotations", "pulses"):
            m[f"adaptive.{key}_mean"] = mean([rec[key] for rec, _ in ok])
            m[f"qr.{key}_mean"] = mean([rec[f"qr_{key}"] for rec, _ in ok])
        qr, verify = "qr.qr_decompose", "verify.verify_result"
        m["qr.qr_decompose.total_ms"] = tracer.total_s(qr, qr, None) * 1e3 / n
        m["verify.verify_result.total_ms"] = tracer.total_s(verify, verify, None) * 1e3 / n
        m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        return m


def ratio(num, den):
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb():
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


def records_digest(records):
    ordered = sorted(records, key=lambda r: (r["arch"], r["index"]))
    return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    quditc = load_compiler()
    import numpy as np
    import oracle
    import tracing
    from speed import SpeedProbe
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    runner = Runner(quditc, oracle, tracing, SpeedProbe(), WORKLOADS[args.workload],
                    args.seed, args.instances)
    setup_median_s, setup_slowdown, warmup_repeats = runner.setup()
    probes_in_setup = len(runner.probe.samples)
    setup_s = import_s + setup_median_s
    if not warmup_repeats:
        runner.report(Nondeterministic("warm-up outputs differ between set-up repeats"))

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "instances": len(runner.cases)}
    if args.trace:
        tracer, untraced, traced, done, attempted, passed = runner.measure_traced(args.seconds)
        slowdown = runner.probe.slowdown(probes_in_setup)
        measured = runner.per_layer(tracer, untraced, traced, done)
        metrics = {name: value / slowdown if PER_LAYER[name] in ("ms", "us") else value
                   for name, value in measured.items()}
        units = PER_LAYER
        out = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        info["trace_file"] = str(out.relative_to(ROOT))
    else:
        records, times, attempted, passed = runner.measure(args.seconds)
        slowdown = runner.probe.slowdown(probes_in_setup)
        measured, metrics = runner.end_to_end(
            setup_s, setup_slowdown, slowdown, records, times, attempted, passed)
        units = END_TO_END
        info["records_sha256"] = records_digest(records)
        info["timed_compiles"] = sum(len(ts) for ts in times.values())
    info["measured"] = measured
    info["slowdown"] = {"setup": setup_slowdown, "measure": slowdown,
                        "probe_samples": len(runner.probe.samples)}
    if set(metrics) != set(units):
        raise AssertionError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    failed = attempted - passed
    info.update({"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
                 "failures": dict(runner.failures), "env": environment(np)})
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
