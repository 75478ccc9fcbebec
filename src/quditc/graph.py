"""Energy coupling graph: physical levels, drivable transitions, the
logical-state-to-level mapping, ancilla flags, and per-level accumulated
phases.

Logical states are labelled "0".."d-1" for computational states and
"a0", "a1", ... for ancillas.  Matrix index k corresponds to the k-th
entry of :meth:`CouplingGraph.state_order` (computational states in
numeric order, then ancillas).

Graphs are copy-on-write values at the boundary: a :class:`PlacementWalk`
moves a graph's placement in place, pulse by pulse, then builds one new
graph; a search holds no graphs, and :func:`routed_levels` moves its level
list.  Both walk the next-hop table built once per edge set
(:func:`_topology`) hop by hop; a route returns the pulsed level pairs.

The physics of reordering pulses is what makes routing non-trivial: a
pulse is not a permutation but a swap followed by a phase deposit, so
content moved around the graph accumulates pi phases.  These are stored
per level in ``node_phase`` and consumed by later gates:

  * pulse R(low,high)(pi, -pi/2) acts as (swap phases of low/high, then
    add pi at the high level); the inverted pulse deposits at the low
    level; pulses with other phi values deposit phi-dependent phases
    (:meth:`PlacementWalk.pulse` is the one implementation),
  * a rotation's phi is shifted by psi(high) - psi(low) of the levels'
    stored phases psi; :func:`gates.shifted_phi` is the one definition,
    which emission and assembly write inline and the tests hold them to
    (a gate written high->low is already stored low->high, phi negated, as
    :func:`gates.stored_order` states).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .gates import PULSE_PHI, PULSE_THETA, Gate, VirtualZGate, conjugated, reorder_pulse
from .linalg import as_int, as_real, check_size

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2
_ANCILLA_RE = re.compile(r"^a(\d+)$")


def state_key(state) -> str:
    """Normalize a logical-state label (int or str) to its string form."""
    if isinstance(state, (int, np.integer)):
        return str(int(state))
    s = str(state)
    if s.isdigit() or _ANCILLA_RE.match(s):
        return s
    raise ValueError(f"invalid logical state label {state!r}")


def canonical_state_order(states) -> list[str]:
    """Matrix-index order: computational states numerically, then ancillas."""
    labels = [state_key(s) for s in states]
    comp = sorted((s for s in labels if not _ANCILLA_RE.match(s)), key=int)
    anc = sorted((s for s in labels if _ANCILLA_RE.match(s)), key=lambda s: int(s[1:]))
    return comp + anc


def _checked_placement(mapping, num_levels: int) -> dict:
    """A state->level placement with normalized labels and int levels.
    Raises ValueError unless it maps states one-to-one onto levels
    0..num_levels-1."""
    try:
        placement = {state_key(s): as_int(lv) for s, lv in mapping.items()}
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"placement must map state labels to levels: {exc}") from None
    levels = list(placement.values())
    if any(not 0 <= lv < num_levels for lv in levels):
        raise ValueError(f"mapped level out of range 0..{num_levels - 1}")
    if len(set(levels)) != len(levels):
        raise ValueError("logical-to-physical mapping must be injective")
    return placement


# One entry at 128 levels holds about 280 KB (tracemalloc), so 32 entries
# cap the cache near 9 MB.  Placements on one edge set share an entry; a
# benchmark workload uses 3 edge sets.
@lru_cache(maxsize=32)
def _topology(num_levels: int, edges: frozenset):
    """Per-edge-set tables, built once, immutable as the cache shares them:
    next hops nxt[a][b], the smallest neighbour of a one hop closer to b (b
    at b), and BFS distances dist[a][b]; both -1 where b is unreachable."""
    adj: list[list[int]] = [[] for _ in range(num_levels)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    nxt, dist = [], []
    for src in range(num_levels):
        row, hop, queue = [-1] * num_levels, [-1] * num_levels, [src]
        row[src], hop[src] = 0, src
        for cur in queue:  # BFS order: hop[cur], the least first step to cur, is final
            d, first = row[cur] + 1, hop[cur]
            for n in adj[cur]:
                if row[n] < 0:
                    row[n], hop[n] = d, first if cur != src else n
                    queue.append(n)
                elif row[n] == d and first < hop[n]:
                    hop[n] = first
        nxt.append(tuple(hop))
        dist.append(tuple(row))
    return tuple(nxt), tuple(dist)


@dataclass(frozen=True)
class CouplingGraph:
    num_levels: int
    edges: frozenset
    logical_map: dict
    ancillas: frozenset = frozenset()
    node_phase: tuple = ()

    def __post_init__(self):
        if self.num_levels < 2:
            raise ValueError("graph needs at least two levels")
        check_size(self.num_levels, "graph levels")
        norm_edges = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on level {a}")
            if not (0 <= a < self.num_levels and 0 <= b < self.num_levels):
                raise ValueError(f"edge ({a},{b}) out of range")
            norm_edges.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm_edges))

        cleaned = _checked_placement(self.logical_map, self.num_levels)
        object.__setattr__(self, "logical_map", cleaned)
        levels = list(cleaned.values())
        if not cleaned:
            raise ValueError("at least one logical state must be mapped")

        anc = frozenset(state_key(s) for s in self.ancillas)
        for s in anc:
            if s not in cleaned:
                raise ValueError(f"ancilla {s!r} is not a mapped state")
            if not _ANCILLA_RE.match(s):
                raise ValueError(f"ancilla label {s!r} must look like 'a0'")
        object.__setattr__(self, "ancillas", anc)
        for s in sorted(cleaned.keys() - anc):
            if _ANCILLA_RE.match(s):
                raise ValueError(f"state {s!r} looks like an ancilla but is not in ancillas")

        comp = sorted(int(s) for s in cleaned.keys() - anc)
        if comp != list(range(len(comp))):
            raise ValueError("computational states must be 0..d-1 without gaps")
        # the states never change (a placement moves them), so their order
        # is sorted once; _clone keeps it
        object.__setattr__(self, "_state_order", tuple(canonical_state_order(cleaned)))

        phases = tuple(float(p) for p in self.node_phase) or (0.0,) * self.num_levels
        if len(phases) != self.num_levels:
            raise ValueError("node_phase length must equal num_levels")
        if not all(map(math.isfinite, phases)):
            raise ValueError("node_phase entries must be finite")
        object.__setattr__(self, "node_phase", phases)

        # Compilation needs every pair of mapped levels reachable; paths may
        # run through unmapped levels.
        _, dist = _topology(self.num_levels, self.edges)
        if any(dist[levels[0]][lv] < 0 for lv in levels[1:]):
            raise ValueError("mapped levels are not mutually reachable")

    # -- queries ---------------------------------------------------------

    def state_order(self) -> list[str]:
        """Canonical matrix-index order: computational states, then ancillas."""
        return list(self._state_order)

    @property
    def num_states(self) -> int:
        return len(self.logical_map)

    @property
    def num_computational(self) -> int:
        return len(self.logical_map) - len(self.ancillas)

    def level_of(self, state) -> int:
        key = state_key(state)
        try:
            return self.logical_map[key]
        except KeyError:
            raise ValueError(f"logical state {key!r} is not mapped") from None

    def is_adjacent(self, level_a: int, level_b: int) -> bool:
        return (min(level_a, level_b), max(level_a, level_b)) in self.edges

    def shortest_level_path(self, src: int, dst: int) -> list[int]:
        """Lexicographically smallest shortest level path from src to dst."""
        nxt, dist = _topology(self.num_levels, self.edges)
        if dist[src][dst] < 0:
            raise ValueError(f"levels {src} and {dst} are disconnected")
        path = [src]
        while src != dst:
            src = nxt[src][dst]
            path.append(src)
        return path

    # -- copy-on-write updates -------------------------------------------

    def _clone(self, **fields) -> "CouplingGraph":
        """Copy with updated fields, skipping re-validation (and the frozen
        __setattr__).  Only for updates that cannot break the invariants
        (swaps, phase changes)."""
        g = object.__new__(CouplingGraph)
        g.__dict__.update(self.__dict__, **fields)
        return g


@dataclass(frozen=True)
class RoutingPlan:
    """Reordering pulses that bring one state adjacent to another, and the
    graph after applying them."""

    pulses: tuple
    resulting_graph: CouplingGraph


class PlacementWalk:
    """A graph's placement, moved in place by pulses: ``levels[k]`` is the
    level of state k of ``state_order()``, ``state[lv]`` the state index at
    level lv (None if unmapped), and ``phases[lv]`` its stored phase."""

    def __init__(self, graph: CouplingGraph):
        self.start = graph
        self.levels = [graph.logical_map[s] for s in graph.state_order()]
        self.state = [None] * graph.num_levels
        for k, lv in enumerate(self.levels):
            self.state[lv] = k
        self.phases = list(graph.node_phase)
        self.nxt = _topology(graph.num_levels, graph.edges)[0]

    def pulse(self, a: int, b: int, theta: float, phi: float) -> None:
        """The pulse rule, for the pulse R(theta, phi) on levels a < b: swap
        the two levels' logical content and stored phases, then add the
        pulse's deposits, -phi - h at a and phi - h at b, with h = pi / 2 for
        theta > 0 and -pi / 2 otherwise."""
        half = _HALF_PI if theta > 0 else -_HALF_PI
        state, levels, phases = self.state, self.levels, self.phases
        sa, sb = state[a], state[b]
        state[a], state[b] = sb, sa
        if sa is not None:
            levels[sa] = b
        if sb is not None:
            levels[sb] = a
        phases[a], phases[b] = (phases[b] + (-phi - half)) % _TWO_PI, \
            (phases[a] + (phi - half)) % _TWO_PI

    def route(self, i: int, j: int) -> list:
        """Pulse state j hop by hop along the next-hop table (the path of
        :meth:`CouplingGraph.shortest_level_path`) until it is adjacent to
        state i, which stays put; returns the pulsed (low, high) level pairs."""
        nxt, dst, pairs = self.nxt, self.levels[i], []
        cur, hop = self.levels[j], nxt[self.levels[j]][dst]
        while hop != dst:
            pairs.append((cur, hop) if cur < hop else (hop, cur))
            self.pulse(*pairs[-1], PULSE_THETA, PULSE_PHI)
            cur, hop = hop, nxt[hop][dst]
        return pairs

    def graph(self, node_phase: tuple = ()) -> CouplingGraph:
        """The starting graph with the walk's placement, and node_phase or its phases."""
        mapping = dict(self.start.logical_map)
        mapping.update(zip(self.start.state_order(), self.levels))
        return self.start._clone(logical_map=mapping, node_phase=node_phase or tuple(self.phases))


def plan_routing(graph: CouplingGraph, state_i, state_j) -> RoutingPlan:
    """Move state_j node-by-node along a shortest path until it is adjacent
    to state_i (which stays put)."""
    la = graph.level_of(state_i)
    lb = graph.level_of(state_j)
    if la == lb:
        raise ValueError("cannot route a state to itself")
    walk = PlacementWalk(graph)
    pairs = walk.route(walk.state[la], walk.state[lb])
    return RoutingPlan(tuple(reorder_pulse(a, b) for a, b in pairs), walk.graph())


def routed_levels(graph: CouplingGraph, levels: list, i: int, j: int) -> list:
    """The tracked states' levels (levels[k] is state k's) after plan_routing
    brings state j next to state i: each level between them hands its content
    back one hop, and j lands next to i.  Walks the next-hop table as
    PlacementWalk.route does; builds no pulse and no graph."""
    nxt, dst, moved = _topology(graph.num_levels, graph.edges)[0], levels[i], list(levels)
    back, lv = levels[j], nxt[levels[j]][dst]
    while lv != dst:
        if lv in levels:
            moved[levels.index(lv)] = back
        back, lv = lv, nxt[lv][dst]
    moved[j] = back
    return moved


def apply_graph_rules(gates, graph: CouplingGraph):
    """Rewrite a reordered gate sequence into its physically-correct form.

    Walks the sequence in application order.  Reordering pulses update the
    mapping and deposit phases; plain rotations absorb the current phase
    difference into phi; virtual Z gates are recorded on the graph's nodes
    instead of being emitted.

    Returns (adjusted sequence, resulting graph).
    """
    out: list[Gate] = []
    walk = PlacementWalk(graph)
    for gate in gates:
        if isinstance(gate, VirtualZGate):
            if gate.level >= graph.num_levels:
                raise ValueError(f"gate level {gate.level} out of range")
            # Recorded, not executed: the level now owes this phase, which
            # is the opposite sign of a physically deposited one.
            walk.phases[gate.level] = (walk.phases[gate.level] - gate.phi) % _TWO_PI
            continue
        if gate.level_high >= graph.num_levels:
            raise ValueError(f"gate levels out of range: {gate}")
        if gate.routing:
            if not graph.is_adjacent(gate.level_low, gate.level_high):
                raise ValueError(f"pulse on non-coupled levels ({gate.level_low},{gate.level_high})")
            if not math.isclose(abs(gate.theta), math.pi, rel_tol=0, abs_tol=1e-12):
                raise ValueError("reordering pulses must have |theta| == pi")
            out.append(gate)
            walk.pulse(gate.level_low, gate.level_high, gate.theta, gate.phi)
        else:
            out.append(conjugated(gate, walk.phases))
    return out, walk.graph()


def placement_embedding(mapping, num_levels: int, dim: int) -> np.ndarray:
    """num_levels x dim matrix whose k-th column is the basis vector of the
    level holding the k-th canonical state of a state->level placement
    (checked as by :func:`_checked_placement`)."""
    placement = _checked_placement(mapping, num_levels)
    order = canonical_state_order(placement)
    if dim > len(order):
        raise ValueError(f"dim {dim} exceeds mapped state count {len(order)}")
    emb = np.zeros((num_levels, dim), dtype=np.complex128)
    for k, state in enumerate(order[:dim]):
        emb[placement[state], k] = 1.0
    return emb


def embedding_matrix(graph: CouplingGraph, dim: int) -> np.ndarray:
    """The placement embedding of the graph's logical map."""
    return placement_embedding(graph.logical_map, graph.num_levels, dim)


# -- file format ----------------------------------------------------------

def load_graph(path: str | Path) -> CouplingGraph:
    """Read the JSON graph format:
    {"levels": N, "edges": [[a,b],...], "logical_map": {"0": la, ...},
     "ancillas": ["a0", ...]} with optional "node_phase"."""
    with open(path) as fh:
        doc = json.load(fh)
    return graph_from_dict(doc)


def graph_from_dict(doc: dict) -> CouplingGraph:
    try:
        levels = as_int(doc["levels"])
        edges = frozenset((as_int(a), as_int(b)) for a, b in doc["edges"])
        mapping = {str(k): v for k, v in doc["logical_map"].items()}  # levels: CouplingGraph
        ancillas = frozenset(str(s) for s in doc.get("ancillas", ()))
        phases = tuple(as_real(p) for p in doc.get("node_phase", ()))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from None
    return CouplingGraph(levels, edges, mapping, ancillas, phases)


def graph_to_dict(graph: CouplingGraph) -> dict:
    doc = {
        "levels": graph.num_levels,
        "edges": sorted([a, b] for a, b in graph.edges),
        "logical_map": {s: graph.logical_map[s] for s in graph.state_order()},
        "ancillas": sorted(graph.ancillas, key=lambda s: int(s[1:])),
    }
    if any(p != 0.0 for p in graph.node_phase):
        doc["node_phase"] = list(graph.node_phase)
    return doc


def save_graph(graph: CouplingGraph, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh)
        fh.write("\n")
