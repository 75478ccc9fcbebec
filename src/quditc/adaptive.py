"""Adaptive decomposition: depth-first search over two-level rotation
choices with routing-aware costs and a hard cost limit.

Children annihilate one entry of one column; a child is kept only while
the path stays under the cost limit (by default a factor of the fixed
sequence's cost).  Routing pulses are not uncomputed, so the logical
placement drifts with the search; this is what lets the search exploit
placements the fixed sequence cannot.  By default the incumbent is seeded
with the fixed elimination ladder (its steps replayed with one-way routing,
or the fixed sequence itself where that replay does not fit the limit), so
the search spends its node budget on improving a complete decomposition.

The search runs on an explicit stack, so its depth (up to d(d-1)/2 + d) is
not bounded by the recursion limit.  A node does only the work its taken
children use:

  * A node holds its matrix as a list of d row arrays.  A child copies the
    list and replaces the two rows returned by ``apply_rotation_rows``, the
    one row kernel of both back-ends; a matrix is built only for a new
    incumbent.  The moduli and phases are row lists kept the same way, from
    ``np.hypot`` and ``np.arctan2`` (what ``np.angle`` computes) of the two
    new rows: ``np.abs`` on complex arrays can differ from them in the last
    ulp, which changes costs and tie-breaks.
  * Children come column by column.  Before the first incumbent a column is
    priced lazily in (row, row2) order, one candidate per yield; with an
    incumbent its passing candidates are priced together and sorted by step
    cost, so a node first tries the cheapest rotation of its lowest
    uncleared column.  Sorted from the start, a cold first-solution search
    of ``haar_unitary(16, 16)`` on star-16 dives by tiny rotations and
    finds no solution in 20000 nodes, where (row, row2) order finds one in
    120; priced eagerly, a cold star-48 search peaks at 5x the memory.  Each
    child is checked against the limit current when it is yielded.
  * Each distinct angle is priced once per search: the registered
    ``rotation_cost`` (a pure function of its arguments) is memoised.
  * A child is terminal when its two new rows are diagonal within
    ``linalg.DEFAULT_TOL`` and every other row already was (one dirty bit
    per row).  The same tolerance filters the candidates: an entry at most
    it is zero, so it is neither rotated nor keeps a node from being
    terminal.  At the depth cap only a terminal child is kept, so a child
    that leaves a third row dirty is dropped before it is routed or rotated.
  * A node's placement is a list of its states' levels, moved by
    ``graph.routed_levels`` when a child's two states are not adjacent.  A
    node records its path as parent-linked (r, r2, theta, phi) steps; gates
    (pulses, deposited phases) are emitted once, for the final incumbent.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
from .graph import CouplingGraph, _topology, routed_levels
from .linalg import DEFAULT_TOL, is_diagonal
from .linalg import is_unitary  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .qr import _validated, emit_fixed, ladder, ladder_cost
from .qr import qr_cost_bound  # noqa: F401  (a binding benchmark/tracing.py wraps)

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SearchConfig:
    cost_limit_factor: float = 1.1
    cost_limit: float | None = None     # absolute override of the factor
    max_nodes: int = 1_000_000
    return_first: bool = False
    max_depth: int | None = None        # default: d(d-1)/2 + d
    warm_start: bool = True             # seed the incumbent with the fixed ladder

    def __post_init__(self):
        if math.isnan(self.cost_limit_factor) or math.isnan(self.cost_limit or 0.0):
            raise ValueError("cost limits must not be NaN (inf means no limit)")
        if self.cost_limit is None and self.cost_limit_factor < 1.0:
            raise ValueError("cost_limit_factor must be >= 1 unless an absolute limit is given")
        if self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class NoSolutionError(RuntimeError):
    """Search exhausted its budget without a complete decomposition."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


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
    sequence's cost) and, with warm start, an incumbent (cost, gates, final
    graph, final matrix): the steps replayed with one-way routing, or the
    fixed sequence where that replay costs at least the limit."""
    limit = config.cost_limit
    if limit is not None and not config.warm_start:
        return limit, None
    steps, m = ladder(m0)
    fixed = ladder_cost(steps, graph, states, params)
    if limit is None:
        limit = config.cost_limit_factor * fixed
    if not config.warm_start:
        return limit, None
    cost, gates, g = _emit_path(graph, states, params, steps)
    if cost >= limit:
        cost, (gates, g) = fixed, emit_fixed(graph, states, steps)
    return limit, (cost, gates, g, m)


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
        self.costs = {}      # theta -> rotation_cost(theta, 1, params)
        self.graph = None    # the edges routing follows; routing never changes them
        self.dist = None     # level distances on those edges
        self.columns = None  # (c, [(r, r2), ...]): entry (r2, c) rotates into (r, c)

    def current_limit(self) -> float:
        return self.best[0] if self.best is not None else self.limit

    def prepare(self, m, graph):
        """(moduli rows, phase rows, state levels) of a node given as a
        full matrix and graph; also fixes the search's graph, distance table
        and candidate (r, r2) pairs per column, in triple order."""
        self.graph = graph
        self.dist = _topology(graph.num_levels, graph.edges)[1]
        dim = len(self.states)
        self.columns = [(c, [(r, r2) for r in range(c, dim) for r2 in range(r + 1, dim)])
                        for c in range(dim)]
        levels = [graph.logical_map[s] for s in self.states]
        return np.hypot(m.real, m.imag).tolist(), np.arctan2(m.imag, m.real).tolist(), levels

    def children(self, mag, ang, levels, cost):
        """Children of a node as (step, c, r, r2, theta, phi): one per
        candidate entry above the zero tolerance whose step keeps the path
        under the limit, column by column.  While the search holds an
        incumbent, a column's passing candidates are priced when it is
        reached and sorted by step cost; before that they are priced lazily
        in (r, r2) order.  Each child is checked against the limit current
        when it is yielded: the incumbent only improves while the caller
        searches a yielded child's subtree."""
        dist, costs, params = self.dist, self.costs, self.params
        pulse, tol = self.pulse_cost, DEFAULT_TOL
        for c, pairs in self.columns:
            lazy = self.best is None
            limit = self.current_limit()
            column = []
            for r, r2 in pairs:
                low = mag[r2][c]
                if low <= tol:
                    continue
                theta = 2.0 * math.atan2(low, mag[r][c])
                rot = costs.get(theta)
                if rot is None:
                    rot = costs[theta] = rotation_cost(theta, 1, params)
                step = (dist[levels[r]][levels[r2]] - 1) * pulse + rot
                if cost + step < limit:
                    if lazy:
                        yield step, c, r, r2, theta, -(_HALF_PI + ang[r][c] - ang[r2][c])
                        limit = self.current_limit()
                    else:
                        column.append((step, r, r2, theta))
            column.sort()
            for step, r, r2, theta in column:
                if cost + step >= self.best[0]:
                    break  # the rest of the column costs at least as much
                yield step, c, r, r2, theta, -(_HALF_PI + ang[r][c] - ang[r2][c])

    def enter(self, stack, node) -> bool:
        """Expand a node (rows, mag, ang, dirty, levels, path, cost, depth)
        onto the stack; False once the node budget is spent."""
        if self.stats.nodes_expanded >= self.config.max_nodes:
            self.stats.stop_reason = "node_budget"
            return False
        self.stats.nodes_expanded += 1
        self.stats.max_depth = max(self.stats.max_depth, node[-1])
        _, mag, ang, _, levels, _, cost, _ = node
        stack.append((self.children(mag, ang, levels, cost),) + node)
        return True

    def run(self, m0, graph0) -> None:
        """Depth-first search from the root.  Each stack frame holds a node
        and the iterator over its children, so a child's subtree is searched
        in full before its next sibling, as a recursive search would."""
        pulse, costs = self.pulse_cost, self.costs
        mag0, ang0, levels0 = self.prepare(m0, graph0)
        graph, dist = self.graph, self.dist
        dirty0 = sum(1 << k for k, row in enumerate(mag0) if _dirty(row, k))
        stack = []
        if not self.enter(stack, (list(m0), mag0, ang0, dirty0, levels0, None, 0.0, 0)):
            return
        while stack:
            children, rows, mag, ang, dirty, levels, path, cost, depth = stack[-1]
            for step, c, r, r2, theta, phi in children:
                if depth + 1 >= self.depth_cap and dirty & ~(1 << r | 1 << r2):
                    continue  # at the cap, only a terminal child is kept
                hops = dist[levels[r]][levels[r2]] - 1
                levels2 = routed_levels(graph, levels, r, r2) if hops else levels
                cost2 = cost + costs[theta] + hops * pulse
                path2 = (path, r, r2, theta, phi)
                x, y = apply_rotation_rows(rows[r], rows[r2], theta, phi)
                rows2 = rows.copy()
                rows2[r], rows2[r2] = x, y
                mag_r = np.hypot(x.real, x.imag).tolist()
                mag_r2 = np.hypot(y.real, y.imag).tolist()
                dirty2 = dirty & ~((1 << r) | (1 << r2)) \
                    | _dirty(mag_r, r) << r | _dirty(mag_r2, r2) << r2
                if not dirty2:
                    self.stats.solutions_found += 1
                    if self.best is None or cost2 < self.best[0]:
                        self.best = (cost2, path2, np.array(rows2))
                    if self.config.return_first:
                        self.stats.stop_reason = "first_solution"
                        return
                elif depth + 1 < self.depth_cap:
                    mag2, ang2 = mag.copy(), ang.copy()
                    mag2[r], mag2[r2] = mag_r, mag_r2
                    ang2[r] = np.arctan2(x.imag, x.real).tolist()
                    ang2[r2] = np.arctan2(y.imag, y.real).tolist()
                    node = (rows2, mag2, ang2, dirty2, levels2, path2, cost2, depth + 1)
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
    if config.return_first and search.best is not None:
        search.stats.stop_reason = "first_solution"
    else:
        search.run(m0, graph)
    search.stats.beat_warm_start = ladder_out is not None and search.best[1] is not None
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
