"""Adaptive decomposition: depth-first search over two-level rotation
choices with routing-aware costs and a hard cost limit.

Each node holds the remaining matrix, a coupling-graph snapshot, and the
cost so far.  Children annihilate one entry of one column; a child is
kept only while the path stays under the cost limit (by default a factor
of the fixed baseline's cost).  Routing pulses are not uncomputed, so
the logical placement drifts with the search; this is what lets the
search exploit placements the fixed sequence cannot.

By default the incumbent is seeded with a replay of the fixed elimination
ladder, so the search starts from a complete decomposition and spends its
node budget purely on improving it.

The depth-first search runs on an explicit stack rather than by recursion,
so its depth (up to d(d-1)/2 + d) is not bounded by the interpreter's
recursion limit.  A node does only the work its taken children use:

  * Children are generated lazily, in (column, row, row2) triple order,
    and each candidate is checked against the limit current when it is
    reached, so a node stops pricing once the search descends.
  * The moduli and phases of the node matrix are carried as row lists:
    a child shares its parent's rows and recomputes only the two rows its
    rotation changed.  The moduli come from ``np.hypot`` and the angle
    from ``math.atan2`` because ``np.abs`` on complex arrays and the
    vectorised ``np.arctan2`` can differ from the scalar calls in the
    last ulp, which changes costs and tie-breaks; array ``np.angle``
    matches its scalar form exactly.
  * Each distinct angle is priced once per search: the registered
    ``rotation_cost`` (a pure function of its arguments) is memoised.
  * A child is terminal when its two new rows are diagonal within
    ``linalg.DEFAULT_TOL`` and every other row already was (one dirty bit
    per row).  The same tolerance filters the candidates: an entry at most
    it is zero, so it is neither rotated nor keeps a node from being
    terminal.
  * A node records its path as parent-linked (r, r2, theta, phi) steps and
    routes only when its two states are not adjacent.  Gates are emitted
    once, for the final incumbent, by replaying its path.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compile import (
    CompilationResult,
    SearchStats,
    annihilation_angles,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    apply_rotation_rows,
    assemble,
    compile_states,
    emit_rotation,
)
from .cost import CostParams, pulse_cost, rotation_cost
from .graph import CouplingGraph, _topology, plan_routing
from .linalg import DEFAULT_TOL, is_diagonal
from .linalg import is_unitary  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .qr import _validated, ladder, ladder_cost
from .qr import qr_cost_bound  # noqa: F401  (a binding benchmark/tracing.py wraps)

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SearchConfig:
    cost_limit_factor: float = 1.1
    cost_limit: float | None = None     # absolute override of the factor
    max_nodes: int = 1_000_000
    return_first: bool = False
    sort_children: bool = False
    max_depth: int | None = None        # default: d(d-1)/2 + d
    warm_start: bool = True             # seed the incumbent with the fixed ladder

    def __post_init__(self):
        if self.cost_limit is None and self.cost_limit_factor < 1.0:
            raise ValueError("cost_limit_factor must be >= 1 unless an absolute limit is given")


class NoSolutionError(RuntimeError):
    """Search exhausted its budget without a complete decomposition."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


@lru_cache(maxsize=128)
def _triples(dim: int) -> tuple:
    """Candidate (column, row, row2) triples of a dim x dim node, in
    expansion order."""
    return tuple(
        (c, r, r2)
        for c in range(dim)
        for r in range(c, dim)
        for r2 in range(r + 1, dim)
    )


def _emit_path(graph, states, params, steps):
    """Route and emit each (r, r2, theta, phi) step in order, starting from
    graph; routing is never undone.  Returns (cost, gates, final graph)."""
    g = graph
    gates = []
    cost = 0.0
    pulse = pulse_cost(params)
    for r, r2, theta, phi in steps:
        step_gates, g = emit_rotation(g, states[r], states[r2], theta, phi)
        gates.extend(step_gates)
        cost += rotation_cost(theta, 1, params) + (len(step_gates) - 1) * pulse
    return cost, gates, g


def _path_steps(path) -> list:
    """The (r, r2, theta, phi) steps of a parent-linked path, root first."""
    steps = []
    while path is not None:
        path, r, r2, theta, phi = path
        steps.append((r, r2, theta, phi))
    steps.reverse()
    return steps


def _ladder_replay(m0, graph, states, params, config):
    """Run the fixed elimination ladder at most once, for both of its uses:
    the cost limit (config's absolute one, else its factor times the fixed
    baseline's cost) and, with warm start, the steps replayed through the
    one-way-routing emitter as (cost, gates, final graph, final matrix),
    a complete incumbent from the start."""
    limit = config.cost_limit
    if limit is None or config.warm_start:
        steps, m = ladder(m0)
    if limit is None:
        limit = config.cost_limit_factor * ladder_cost(steps, graph, states, params)
    if not config.warm_start:
        return limit, None
    return limit, (*_emit_path(graph, states, params, steps), m)


def _dirty(row: list, k: int) -> bool:
    """True if row k has an off-diagonal modulus above the zero tolerance."""
    return max(row[:k] + row[k + 1:]) > DEFAULT_TOL


class _Search:
    def __init__(self, states, config, params, limit):
        self.states = states
        self.config = config
        self.params = params
        self.limit = limit
        self.pulse_cost = pulse_cost(params)
        self.best = None  # (cost, path, matrix); path None marks the ladder
        self.stats = SearchStats(cost_limit=limit)
        dim = len(states)
        self.depth_cap = config.max_depth if config.max_depth is not None \
            else dim * (dim - 1) // 2 + dim
        self.triples = _triples(dim)
        self.costs = {}   # theta -> rotation_cost(theta, 1, params)
        self.dist = None  # level distances; routing never changes the edges

    def current_limit(self) -> float:
        return self.best[0] if self.best is not None else self.limit

    def prepare(self, m, graph):
        """(moduli rows, phase rows, state levels) of a node given as a
        full matrix and graph; also fixes the search's distance table."""
        self.dist = _topology(graph.num_levels, graph.edges)[1].tolist()
        levels = [graph.logical_map[s] for s in self.states]
        return np.hypot(m.real, m.imag).tolist(), np.angle(m).tolist(), levels

    def children(self, mag, ang, levels, cost):
        """Children of a node as (step, c, r, r2, theta, phi): one per
        candidate entry above the zero tolerance whose step keeps the path
        under the limit.  Unsorted, they are generated in triple order and
        each is checked against the limit current when it is reached: the
        incumbent only improves while the caller searches a yielded child's
        subtree."""
        children = self._candidates(mag, ang, levels, cost)
        return sorted(children) if self.config.sort_children else children

    def _candidates(self, mag, ang, levels, cost):
        dist, costs, params = self.dist, self.costs, self.params
        pulse, tol = self.pulse_cost, DEFAULT_TOL
        limit = self.current_limit()
        for c, r, r2 in self.triples:
            low = mag[r2][c]
            if low <= tol:
                continue
            theta = 2.0 * math.atan2(low, mag[r][c])
            rot = costs.get(theta)
            if rot is None:
                rot = costs[theta] = rotation_cost(theta, 1, params)
            step = (dist[levels[r]][levels[r2]] - 1) * pulse + rot
            if cost + step >= limit:
                continue
            yield step, c, r, r2, theta, -(_HALF_PI + ang[r][c] - ang[r2][c])
            limit = self.current_limit()

    def enter(self, stack, node) -> bool:
        """Expand a node (m, mag, ang, dirty, levels, graph, path, cost,
        depth) onto the stack; False once the node budget is spent."""
        if self.stats.nodes_expanded >= self.config.max_nodes:
            return False
        self.stats.nodes_expanded += 1
        self.stats.max_depth = max(self.stats.max_depth, node[-1])
        _, mag, ang, _, levels, _, _, cost, _ = node
        stack.append((iter(self.children(mag, ang, levels, cost)),) + node)
        return True

    def run(self, m0, graph0) -> None:
        """Depth-first search from the root.  Each stack frame holds a node
        and the iterator over its children, so a child's subtree is searched
        in full before its next sibling, as a recursive search would."""
        states, pulse, costs = self.states, self.pulse_cost, self.costs
        mag0, ang0, levels0 = self.prepare(m0, graph0)
        dist = self.dist
        dirty0 = sum(1 << k for k, row in enumerate(mag0) if _dirty(row, k))
        stack = []
        if not self.enter(stack, (m0, mag0, ang0, dirty0, levels0, graph0, None, 0.0, 0)):
            return
        while stack:
            children, m, mag, ang, dirty, levels, graph, path, cost, depth = stack[-1]
            for step, c, r, r2, theta, phi in children:
                if cost + step >= self.current_limit():
                    continue  # incumbent may have improved mid-loop
                if dist[levels[r]][levels[r2]] == 1:
                    graph2, levels2, routing = graph, levels, 0.0
                else:
                    plan = plan_routing(graph, states[r], states[r2])
                    graph2 = plan.resulting_graph
                    levels2 = [graph2.logical_map[s] for s in states]
                    routing = len(plan.pulses) * pulse
                cost2 = cost + costs[theta] + routing
                path2 = (path, r, r2, theta, phi)
                m2 = m.copy()
                apply_rotation_rows(m2, r, r2, theta, phi)
                rows = m2[[r, r2]]
                mag_r, mag_r2 = np.hypot(rows.real, rows.imag).tolist()
                dirty2 = dirty & ~((1 << r) | (1 << r2)) \
                    | _dirty(mag_r, r) << r | _dirty(mag_r2, r2) << r2
                if not dirty2:
                    self.stats.solutions_found += 1
                    if self.best is None or cost2 < self.best[0]:
                        self.best = (cost2, path2, m2)
                    if self.config.return_first:
                        return
                elif depth + 1 < self.depth_cap:
                    mag2, ang2 = mag.copy(), ang.copy()
                    mag2[r], mag2[r2] = mag_r, mag_r2
                    ang2[r], ang2[r2] = np.angle(rows).tolist()
                    node = (m2, mag2, ang2, dirty2, levels2, graph2, path2, cost2, depth + 1)
                    if not self.enter(stack, node):
                        return
                    break
            else:
                stack.pop()


def adaptive_compile(u, graph: CouplingGraph, config: SearchConfig = SearchConfig(),
                     params: CostParams = CostParams()) -> CompilationResult:
    u = _validated(u)
    dim = u.shape[0]
    states = compile_states(graph, dim)
    t0 = time.perf_counter()

    m0 = u.conj().T.copy()
    if is_diagonal(m0):
        sequence, theta, g_final = assemble(graph, graph, [], m0, dim)
        stats = SearchStats(wall_time_ms=(time.perf_counter() - t0) * 1000.0)
        return CompilationResult(sequence, theta, 0.0, stats, graph, g_final)

    limit, replay = _ladder_replay(m0, graph, states, params, config)
    search = _Search(states, config, params, limit)
    ladder_out = None
    if replay is not None:
        wcost, wgates, wgraph, wm = replay
        if wcost < limit and is_diagonal(wm):
            ladder_out = (wgates, wgraph)
            search.best = (wcost, None, wm)
            search.stats.solutions_found = 1
    if not (config.return_first and search.best is not None):
        search.run(m0, graph)
    search.stats.wall_time_ms = (time.perf_counter() - t0) * 1000.0

    if search.best is None:
        raise NoSolutionError(
            f"no decomposition within cost limit {limit:.6g} "
            f"after {search.stats.nodes_expanded} nodes",
            search.stats,
        )
    cost, path, m_final = search.best
    # The ladder's gates are already emitted; a search incumbent's are
    # built here, once, by replaying its path from the initial graph.
    gates, g_final_raw = ladder_out if path is None \
        else _emit_path(graph, states, params, _path_steps(path))[1:]
    sequence, theta, g_final = assemble(graph, g_final_raw, gates, m_final, dim)
    return CompilationResult(sequence, theta, cost, search.stats, graph, g_final)


@dataclass(frozen=True, eq=False)
class BatchItem:
    index: int
    result: CompilationResult | None
    error: str | None = None


def compile_batch(unitaries, graph: CouplingGraph, config: SearchConfig = SearchConfig(),
                  params: CostParams = CostParams()) -> list[BatchItem]:
    """Compile each unitary independently; failures are collected, not raised."""
    items = []
    for idx, u in enumerate(unitaries):
        try:
            items.append(BatchItem(idx, adaptive_compile(u, graph, config, params)))
        except (NoSolutionError, ValueError) as exc:
            items.append(BatchItem(idx, None, str(exc)))
    return items
