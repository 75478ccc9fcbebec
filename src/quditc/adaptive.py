"""Adaptive decomposition: depth-first search over two-level rotation
choices with routing-aware costs and a hard cost limit.

Children annihilate one entry of one column; a child is kept only while
the path stays under the incumbent's cost.  Every incumbent has one form,
(cost, steps, final matrix, undo), and the first is the cost limit,
``cost_limit_factor`` times the fixed sequence's cost, with no steps.
Routing pulses are not uncomputed, so the logical placement drifts with
the search; this is what lets the search exploit placements the fixed
sequence cannot.  By default the first incumbent is instead the fixed
elimination ladder (its steps replayed with one-way routing, or the fixed
sequence itself where that costs less), so the search spends its node
budget on improving a complete decomposition.  The one-way replay is
priced from its emission, which builds its gates if it is the answer; only
the warm start's undo flag can be True, and it is kept unless it costs
more than the limit.  An input whose ladder does not end diagonal
raises ValueError (``qr.ladder``) before any node.  A search is whole when
built; ``run`` builds only the root's rows.

The search runs on an explicit stack, so its depth (up to d(d-1)/2 + d) is
not bounded by the recursion limit.  A node does only the work its taken
children use:

  * A node holds its matrix as a list of d row arrays.  A child copies the
    list and replaces two rows with the (2, d) array that
    ``apply_rotation_rows``, the paired update, returns: one np.multiply by
    the 2x2 coefficients into the search's reused buffers and one np.add,
    the ladder's arithmetic (the ladder runs it in place), from the cos and
    sin of half the angle that the child's decision computed; a matrix is
    built only for a new incumbent.  The moduli and phases are row lists kept the
    same way, from one ``np.hypot`` and one ``np.arctan2`` (what
    ``np.angle`` computes) of the two new rows: ``np.abs`` on complex arrays
    can differ from them in the last ulp, which changes costs and
    tie-breaks.  A node's two phase rows are computed when it yields its
    first child to build, so a node whose children are all cut computes
    none.
  * Children come column by column, and within a column unit by unit
    (``_columns``): one loop prices a unit's candidates, sorts them by step
    cost and yields each that still passes the incumbent current when it is
    yielded.  While the incumbent is the bare limit a column takes its cold
    units, one (row, row2) pair each in row order, so pricing stays lazy;
    once it has steps, its one warm unit, which reads each live entry (row2,
    c) once, so a node first tries the cheapest rotation of its lowest
    uncleared column.  Sorted from the start, a cold first-solution search
    of ``haar_unitary(16, 16)`` on star-16 finds no solution in 20000 nodes,
    where row order finds one in 120.  A candidate whose routing pulses
    alone reach the incumbent's cost is dropped before its angle is taken or
    priced, which is exact because a rotation costs >= 0
    (``cost.rotation_cost`` checks it).
  * Each distinct angle is priced once per search: the registered
    ``rotation_cost`` (a pure function of its arguments) is memoised.
  * A child is terminal when its two new rows are diagonal within
    ``linalg.DEFAULT_TOL`` and every other row already was (one dirty bit
    per row).  The same tolerance filters the candidates: an entry at most
    it is zero, so it is neither rotated nor keeps a node from being
    terminal.  The depth cap is applied where children are made: a child at
    the cap is kept only if terminal, and a step cleans at most its two
    rows, so a node one step from the cap yields only children whose rows
    cover its dirty rows, and with more than two does no work at all
    (``SearchStats.dead_at_cap`` counts it).
  * Every child is decided where ``_Search.children`` prices it, before it
    is built, from its parent's moduli, its cost so far and cos, sin of half
    its angle.  It is cut if it is dead at the cap (one step from it with
    more than two dirty rows for certain) or if its angle bound, which
    needs no routing, shows that no solution below it can beat the
    incumbent; the proofs are in the ``children`` docstring.  A cut child
    counts as one expanded node, is never yielded and never built; the
    bound's cuts are ``SearchStats.cut_by_bound``.  ``run`` only builds the
    children yielded to it.  A cut subtree holds no solution that would
    replace the incumbent, so the search visits the same nodes in the same
    order less whole subtrees: an exhausted search returns the same gates,
    and a budget-bound one reaches at least as far per node.
  * A node's placement is a list of its states' levels, moved by
    ``graph.routed_levels`` (a copy) when a child's two states are not
    adjacent.  A node keeps the (r, r2, theta, phi) step that made it, so
    the stack is the path and its length a child's depth.  Gates are built
    once, for the final incumbent, by ``_compile.assemble``, from its
    emission (``_compile.emit``): the warm start's own where that is the
    answer, else one emitted for the answer.
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
    compile_levels,
    emit,
    emit_rotation,  # noqa: F401  (a binding benchmark/tracing.py wraps)
    rotation_scratch,
)
from .cost import CostParams, min_cost_per_radian, pulse_cost, rotation_cost
from .graph import CouplingGraph, _topology, routed_levels
from .linalg import DEFAULT_TOL, _is_count, is_diagonal, is_real
from .linalg import is_unitary  # noqa: F401  (a binding benchmark/tracing.py wraps)
from .qr import _validated, ladder, ladder_cost
from .qr import qr_cost_bound  # noqa: F401  (a binding benchmark/tracing.py wraps)

_HALF_PI = math.pi / 2
# Taken off each column's angle: it covers float drift and a terminal
# node's off-diagonal entries (each at most DEFAULT_TOL).
_ANGLE_MARGIN = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    cost_limit_factor: float = 1.1      # the limit: this times the fixed sequence's cost
    max_nodes: int = 1_000_000
    return_first: bool = False
    max_depth: int | None = None        # default: d(d-1)/2 + d
    warm_start: bool = True             # seed the incumbent with the fixed ladder

    def __post_init__(self):
        if not (is_real(self.cost_limit_factor) and self.cost_limit_factor > 0):
            raise ValueError("cost_limit_factor must be a real number > 0 (inf means no limit)")
        if not (_is_count(self.max_nodes) and self.max_nodes >= 0):
            raise ValueError("max_nodes must be an integer >= 0")
        if not (self.max_depth is None or _is_count(self.max_depth) and self.max_depth >= 1):
            raise ValueError("max_depth must be None or an integer >= 1")
        if not (isinstance(self.return_first, bool) and isinstance(self.warm_start, bool)):
            raise ValueError("return_first and warm_start must be booleans")

    def depth_cap(self, dim: int) -> int:
        """The most steps a solution may take: max_depth, or d(d-1)/2 + d."""
        return self.max_depth if self.max_depth is not None else dim * (dim - 1) // 2 + dim


class _BudgetSpent(Exception):
    """Raised by _Search.count once the node budget is spent; run catches it."""


class NoSolutionError(RuntimeError):
    """Search exhausted its budget without a complete decomposition."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


def _ladder_replay(m0, graph, levels, params, config):
    """Run and price the fixed elimination ladder once, for both of its
    uses: (limit, warm, emission).  The limit is config's factor times the
    fixed sequence's cost.  With warm start, warm is an incumbent (cost, the
    ladder's steps, final matrix, undo), None if it costs more than the
    limit or has more steps than the depth cap: the cheaper complete form,
    the steps replayed with one-way routing, or the fixed sequence (undo
    True) where that costs less.  Each rotation is priced once; the replay
    is emitted without undo, and priced from its pulse counts, only where
    the warm start is used, and emission is that emission, else None."""
    steps, m = ladder(m0)
    fixed, rotations = ladder_cost(steps, graph, levels, params)
    limit = config.cost_limit_factor * fixed
    if not config.warm_start or len(steps) > config.depth_cap(len(m0)):
        return limit, None, None
    emission, pulse, one_way = emit(graph, steps, False), pulse_cost(params), 0.0
    for rot, n in zip(rotations, emission[2]):
        one_way += rot + n * pulse
    cost, undo = min((one_way, False), (fixed, True))  # a tie keeps the one-way replay
    if cost > limit:
        return limit, None, None
    return limit, (cost, steps, m, undo), emission


@lru_cache(maxsize=8)
def _columns(dim: int) -> tuple:
    """(c, cold, warm) per column, lists of units: a unit is a tuple of
    entries (r2, pivots), each pivot r rotating entry (r2, c) into (r, c).
    cold holds one single-pivot unit per pair c <= r < r2 in (r, r2) order,
    each one object in every column (column c's list is a suffix of column
    0's); warm is one unit that holds each entry r2 > c once."""
    cold = tuple(((r2, (r,)),) for r in range(dim) for r2 in range(r + 1, dim))
    return tuple((c, cold[c * dim - c * (c + 1) // 2:],
                  (tuple((r2, tuple(range(c, r2))) for r2 in range(c + 1, dim)),))
                 for c in range(dim))


@lru_cache(maxsize=8)
def _pulse_costs(num_levels: int, edges: frozenset, pulse: float) -> tuple:
    """pulses[a][b]: (dist - 1) * pulse, the routing pulses' cost of a
    rotation between levels a and b, as the search adds it."""
    return tuple(tuple((n - 1) * pulse for n in row) for row in _topology(num_levels, edges)[1])


def _angle(diag: float, norm: float) -> float:
    """A column's angle from its diagonal, acos(|m[c][c]| / norm), less the
    margin and at least 0; an upper bound on the modulus gives a lower bound
    on the angle."""
    return max(0.0, math.acos(min(1.0, diag / norm)) - _ANGLE_MARGIN)


def _stays_dirty(own, other, co, si, k) -> bool:
    """Whether row k, which a step writes as co * own + s * other with
    |s| = si from rows of moduli own and other, is dirty for certain: some
    off-diagonal |co own[j] - si other[j]| (the triangle inequality), less
    a rounding margin, is above DEFAULT_TOL."""
    for j, (x, y) in enumerate(zip(own, other)):
        if j != k and abs(co * x - si * y) - 1e-12 * (co * x + si * y) > DEFAULT_TOL:
            return True
    return False


def _dead_child(mag, dirty, r, r2, co, si) -> bool:
    """Whether the child that rotates rows r and r2 of a node (moduli mag,
    dirty bits) by theta = 2 atan2(si, co) has more than two dirty rows for
    certain: the node's dirty rows outside the pair, plus those of rows r
    and r2 that _stays_dirty proves."""
    n = (dirty & ~(1 << r | 1 << r2)).bit_count()
    if n == 0 or n > 2:
        return n > 2
    # dead when n plus the rows of the pair that stay dirty reaches 3
    if _stays_dirty(mag[r], mag[r2], co, si, r):
        return n == 2 or _stays_dirty(mag[r2], mag[r], co, si, r2)
    return n == 2 and _stays_dirty(mag[r2], mag[r], co, si, r2)


class _Search:
    def __init__(self, graph, levels, config, params, limit, warm):
        self.graph = graph  # the edges routing follows; routing never changes them
        self.levels = levels  # the root's placement (compile_levels)
        self.config = config
        self.params = params
        self.pulse_cost = pulse_cost(params)
        self.floor = min_cost_per_radian(params)  # 0: no angle bound
        # (cost, steps, matrix, undo); the limit is an incumbent with no steps
        self.best = warm or (limit, None, None, False)
        self.stats = SearchStats(cost_limit=limit, solutions_found=int(warm is not None))
        dim = len(levels)
        self.depth_cap = config.depth_cap(dim)
        self.costs = {}  # theta -> rotation_cost(theta, 1, params)
        self.dist = _topology(graph.num_levels, graph.edges)[1]  # level distances
        self.columns = _columns(dim)
        self.pulses = _pulse_costs(graph.num_levels, graph.edges, self.pulse_cost)
        self.norms = None  # the root's column norms, set by run under a floor

    def children(self, node, depth=1):
        """The children of a node to build, at depth (the children's): each
        as ((r, r2, theta, phi), cost so far, cos and sin of theta / 2).
        Every decision about a child is made here, where it is priced, and
        a cut child is never yielded.

        Candidates come column by column and unit by unit (``_columns``): a
        column's cold units while the incumbent is the bare limit, its warm
        unit once it has steps.  A unit's candidates above the zero
        tolerance are priced against the incumbent's cost at the unit's
        start and sorted by (step, r, r2, theta); each is rechecked against
        the incumbent current when it is reached, and the first that fails
        ends the unit: the incumbent only improves while the caller searches
        a yielded child's subtree.  A candidate whose routing alone reaches
        the incumbent's cost is dropped unpriced: a rotation costs >= 0.
        While the incumbent is the bare limit, a column none of whose
        entries below the diagonal is above the tolerance is skipped whole:
        each of its cold units would skip its one entry.

        At the cap (last level) only a terminal child is kept.  A step
        cleans at most rows r and r2: with more than two dirty rows the node
        does no work (``SearchStats.dead_at_cap``), else only the children
        whose pair covers every dirty row are kept.  Below the cap a kept
        child is decided from the node's moduli, its cost so far and cos, sin
        of half its angle, and cut, counted as one expanded node by count,
        as ``enter`` counts one, in two cases:

        Dead at the cap: one step from the cap, a child with more than two
        dirty rows has no child (``_dead_child``; it adds to dead_at_cap).
        The node's dirty rows outside the pair stay dirty; row r2 becomes
        b x + co y from rows x, y (|b| = si), so it stays dirty if some
        off-diagonal j has |co |y_j| - si |x_j||, less a rounding margin,
        above DEFAULT_TOL, and row r likewise with the roles swapped.

        The angle bound (``SearchStats.cut_by_bound``), under a model with a
        floor k > 0 (``cost.min_cost_per_radian``): every rotation by theta
        costs at least k theta.  Column c's angle is alpha_c =
        acos(|m[c][c]| / n_c), with n_c its norm at the root, which a
        rotation keeps (so an input unitary only to within the tolerance is
        covered).  A rotation U of rows r and r2 by theta changes no
        diagonal entry but m[r][r] and m[r2][r2].  It turns a column v into
        U v with |<v, U v>| >= cos(theta / 2) |v|^2, so by the triangle
        inequality of the angle between rays, alpha_r and alpha_r2 each move
        by at most theta / 2.  A terminal node has every alpha_c below the
        margin, so the rotations still to come sum to at least sum alpha;
        routing pulses leave the matrix as it is and cost >= 0.  Each angle
        is kept less a margin of 1e-6 (float drift, and a terminal node's
        entries of up to DEFAULT_TOL) and at least 0.  A child is cut when
        its cost so far plus k sum alpha reaches the incumbent's cost; its
        angles at r and r2 come from the upper bounds co |m[r][r]| +
        si |m[r2][r]| and si |m[r][r2]| + co |m[r2][r2]| on its new diagonal
        moduli, and the rest are the node's.  Each node keeps its angles and
        their sum, so the test is O(1) in d per child.  The sum is the
        rest, (total - alpha_r) - alpha_r2, plus the two new angles, each
        >= 0; every operation of the test rounds monotonically, so a child
        whose rest alone reaches the incumbent's cost is cut without its
        two new angles, with the same outcome.  Twice the largest angle is
        a lower bound too, but on a unitary it is never the larger:
        |m[j][c]| <= sin alpha_j for j != c (row j's norm), the squares of
        those entries sum to sin^2 alpha_c, and asin x + asin y >=
        asin sqrt(x^2 + y^2), so the other angles sum to at least alpha_c.

        A cut subtree holds no solution that would replace the incumbent,
        so the search visits the same nodes in the same order less whole
        subtrees.  Once the budget is spent on a cut child, count raises
        _BudgetSpent, which ends the generator and the search.

        The node is (step, rows, pair, mag, ang, dirty, levels, cost,
        angles); rows are not read.  Its phase rows ang start as a copy of
        its parent's: the two rows its step made, pair, get their phases in
        place at the first child yielded, so a node whose children are all
        cut computes none.  At the root pair is None."""
        made, _, pair, mag, ang, dirty, levels, cost, angles = node
        last = depth >= self.depth_cap
        if last and dirty.bit_count() > 2:
            self.stats.dead_at_cap += 1
            return  # a step cleans at most two rows: no child can be terminal
        pulses, costs, params, tol = self.pulses, self.costs, self.params, DEFAULT_TOL
        stats, count, floor, norms = self.stats, self.count, self.floor, self.norms
        near_cap = depth + 1 == self.depth_cap  # a child here is dead with > 2 dirty rows
        if last:
            angles = None  # a child at the cap is terminal or dropped, never cut
        elif angles:
            alphas, total = angles
        atan2, cos, sin = math.atan2, math.cos, math.sin
        found = []  # a unit's passing candidates, emptied once it is done
        for c, cold, warm in self.columns:
            if self.best[1] is not None:
                units = warm
            elif any(row[c] > tol for row in mag[c + 1:]):
                units = cold
            else:
                continue  # every cold unit of a cleared column would skip its entry
            for unit in units:
                limit = self.best[0]
                for r2, pivots in unit:
                    low = mag[r2][c]
                    if low <= tol:
                        continue
                    near = pulses[levels[r2]]
                    for r in pivots:
                        routing = near[levels[r]]
                        if cost + routing >= limit:
                            continue
                        theta = 2.0 * atan2(low, mag[r][c])
                        rot = costs.get(theta)
                        if rot is None:
                            rot = costs[theta] = rotation_cost(theta, 1, params)
                        step = routing + rot
                        if cost + step < limit:
                            found.append((step, r, r2, theta, rot, routing))
                if not found:
                    continue
                found.sort()
                for step, r, r2, theta, rot, routing in found:
                    if cost + step >= limit:
                        break  # the rest of the unit costs at least as much
                    if last and dirty & ~(1 << r | 1 << r2):
                        continue  # at the cap only a terminal child is kept
                    co, si = cos(theta / 2), sin(theta / 2)
                    cost2 = cost + rot + routing
                    if near_cap and _dead_child(mag, dirty, r, r2, co, si):
                        count(depth)
                        stats.dead_at_cap += 1
                        continue
                    if angles:
                        # the new angles are >= 0 and each operation rounds
                        # monotonically, so a cut on the rest alone is the same cut
                        rest = total - alphas[r] - alphas[r2]
                        if cost2 + floor * rest >= limit or cost2 + floor * (
                                rest + _angle(co * mag[r][r] + si * mag[r2][r], norms[r])
                                + _angle(si * mag[r][r2] + co * mag[r2][r2], norms[r2])) >= limit:
                            count(depth)
                            stats.cut_by_bound += 1
                            continue
                    if pair is not None:  # the node's first child to build
                        ang[made[0]], ang[made[1]] = np.arctan2(pair.imag, pair.real).tolist()
                        pair = None
                    yield (r, r2, theta, -(_HALF_PI + ang[r][c] - ang[r2][c])), cost2, co, si
                    limit = self.best[0]  # the caller may have improved it
                found.clear()

    def count(self, depth) -> None:
        """Count one expanded node at depth.  The one place the search
        stops on its budget: once the budget is spent it sets
        ``stop_reason`` to "node_budget" and raises _BudgetSpent, which run
        catches."""
        stats = self.stats
        if stats.nodes_expanded >= self.config.max_nodes:
            stats.stop_reason = "node_budget"
            raise _BudgetSpent
        stats.nodes_expanded += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

    def enter(self, stack, node) -> None:
        """Count and expand a node (step, rows, pair, mag, ang, dirty, levels,
        cost, angles) onto the stack at depth len(stack).  angles is (column
        angles, their sum) under a model with a floor, else None."""
        self.count(len(stack))
        stack.append((self.children(node, len(stack) + 1),) + node)

    def run(self, m0) -> None:
        """Depth-first search from the root matrix.  Each stack frame holds a
        node and the iterator over its children, so a child's subtree is
        searched in full before its next sibling, as a recursive search
        would.  The stack is the path: a frame's step made its node (None at
        the root).  A first-solution search holding a warm start expands
        none.

        Every child is decided, and a cut one counted, where ``children``
        prices it; this loop only builds what it yields: the routing, the
        two new rows (from the yielded cos and sin of half the angle), their
        moduli and dirty bits, and the node it enters.  A frame whose
        children end is popped.  The search ends when count finds the
        budget spent, whether entering a node or cutting a child: its
        _BudgetSpent is caught here, once."""
        if self.config.return_first and self.best[1] is not None:
            self.stats.stop_reason = "first_solution"
            return
        graph, dist = self.graph, self.dist
        cap, tol, stats = self.depth_cap, DEFAULT_TOL, self.stats
        scratch = rotation_scratch(len(m0))  # apply_rotation_rows' buffers
        mag0 = np.hypot(m0.real, m0.imag).tolist()
        ang0 = np.arctan2(m0.imag, m0.real).tolist()
        # row k is dirty when an off-diagonal modulus is above the tolerance
        dirty0 = sum(1 << k for k, row in enumerate(mag0) if max(row[:k] + row[k + 1:]) > tol)
        norms = angles0 = None
        if self.floor:
            # a rotation keeps each column's norm
            self.norms = norms = [math.hypot(*col) for col in zip(*mag0)]
            alphas = [_angle(mag0[c][c], norms[c]) for c in range(len(m0))]
            angles0 = (alphas, sum(alphas))
        stack = []
        try:
            self.enter(stack, (None, list(m0), None, mag0, ang0, dirty0, self.levels, 0.0,
                               angles0))
            while stack:
                children, _, rows, _, mag, ang, dirty, levels, _, angles = stack[-1]
                depth = len(stack)  # a child's
                for step, cost2, co, si in children:
                    r, r2, _, phi = step
                    levels2 = routed_levels(graph, levels, r, r2) \
                        if dist[levels[r]][levels[r2]] != 1 else levels
                    pair = apply_rotation_rows(rows[r], rows[r2], co, si, phi, scratch)
                    mag_r, mag_r2 = np.hypot(pair.real, pair.imag).tolist()
                    dirty2 = dirty & ~((1 << r) | (1 << r2)) \
                        | (max(mag_r[:r] + mag_r[r + 1:]) > tol) << r \
                        | (max(mag_r2[:r2] + mag_r2[r2 + 1:]) > tol) << r2
                    rows2 = rows.copy()
                    rows2[r], rows2[r2] = pair
                    if not dirty2:
                        stats.solutions_found += 1
                        if cost2 < self.best[0]:
                            steps = [frame[1] for frame in stack[1:]] + [step]
                            self.best = (cost2, steps, np.array(rows2), False)
                        if self.config.return_first:
                            stats.stop_reason = "first_solution"
                            return
                    elif depth < cap:  # a covering child can still leave row r or r2 dirty
                        mag2 = mag.copy()
                        mag2[r], mag2[r2] = mag_r, mag_r2
                        angles2 = None
                        if angles:
                            alphas = angles[0].copy()
                            alphas[r], alphas[r2] = _angle(mag_r[r], norms[r]), \
                                _angle(mag_r2[r2], norms[r2])
                            angles2 = (alphas, sum(alphas))
                        self.enter(stack, (step, rows2, pair, mag2, ang.copy(), dirty2, levels2,
                                           cost2, angles2))
                        break
                else:
                    stack.pop()
        except _BudgetSpent:
            pass  # count set stop_reason


def adaptive_compile(u, graph: CouplingGraph, config: SearchConfig = SearchConfig(),
                     params: CostParams = CostParams()) -> CompilationResult:
    u = _validated(u)
    levels = compile_levels(graph, u.shape[0])
    t0 = time.perf_counter()

    m0 = u.conj().T.copy()
    if is_diagonal(m0):
        stats = SearchStats(wall_time_ms=(time.perf_counter() - t0) * 1000.0)
        return assemble(emit(graph, [], False), m0, levels, 0.0, stats)

    limit, warm, replay = _ladder_replay(m0, graph, levels, params, config)
    search = _Search(graph, levels, config, params, limit, warm)
    search.run(m0)
    search.stats.beat_warm_start = warm is not None and search.best is not warm
    search.stats.wall_time_ms = (time.perf_counter() - t0) * 1000.0

    cost, steps, m_final, undo = search.best
    if steps is None:
        raise NoSolutionError(
            f"no decomposition within cost limit {limit:.6g} "
            f"after {search.stats.nodes_expanded} nodes",
            search.stats,
        )
    # Gates are built here, once, from the final incumbent's emission: the
    # warm start's own where it is the one-way replay, else its steps are
    # emitted from the initial graph.
    if search.best is not warm or undo:
        replay = emit(graph, steps, undo)
    return assemble(replay, m_final, levels, cost, search.stats)
