"""Energy coupling graph: physical levels, drivable transitions, the
logical-state-to-level mapping, ancilla flags, and per-level accumulated
phases.

Logical states are labelled "0".."d-1" for computational states and
"a0", "a1", ... for ancillas.  Matrix index k corresponds to the k-th
entry of :meth:`CouplingGraph.state_order` (computational states in
numeric order, then ancillas).

Graphs are copy-on-write values: every mutating operation returns a new
graph.  A search holds no graphs; :func:`routed_levels` moves its level list.

The physics of reordering pulses is what makes routing non-trivial: a
pulse is not a permutation but a swap followed by a phase deposit, so
content moved around the graph accumulates pi phases.  These are stored
per level in ``node_phase`` and consumed by later gates:

  * pulse R(low,high)(pi, -pi/2) acts as (swap phases of low/high, then
    add pi at the high level); the inverted pulse deposits at the low
    level; pulses with other phi values deposit phi-dependent phases,
  * a rotation's phi is shifted by psi(high) - psi(low) of the levels'
    stored phases psi; :func:`gates.conjugated` is the one implementation
    (a gate written high->low is already stored low->high, phi negated).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .gates import Gate, RotationGate, VirtualZGate, conjugated, reorder_pulse
from .linalg import check_size

_TWO_PI = 2.0 * math.pi
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
        placement = {state_key(s): int(lv) for s, lv in mapping.items()}
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"placement must map state labels to levels: {exc}") from None
    levels = list(placement.values())
    if any(not 0 <= lv < num_levels for lv in levels):
        raise ValueError(f"mapped level out of range 0..{num_levels - 1}")
    if len(set(levels)) != len(levels):
        raise ValueError("logical-to-physical mapping must be injective")
    return placement


@lru_cache(maxsize=512)
def _topology(num_levels: int, edges: frozenset):
    """Per-edge-set tables, immutable as the cache shares them: adjacency
    tuples (sorted) and all-pairs BFS distances dist[a][b] (-1: unreachable)."""
    adj: list[list[int]] = [[] for _ in range(num_levels)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for nbrs in adj:
        nbrs.sort()
    dist = []
    for src in range(num_levels):
        row, queue = [-1] * num_levels, [src]
        row[src] = 0
        for cur in queue:  # a list appended to while it is read: BFS order
            for nxt in adj[cur]:
                if row[nxt] < 0:
                    row[nxt] = row[cur] + 1
                    queue.append(nxt)
        dist.append(tuple(row))
    return tuple(tuple(n) for n in adj), tuple(dist)


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

        comp = sorted(int(s) for s in cleaned if not _ANCILLA_RE.match(s))
        if comp != list(range(len(comp))):
            raise ValueError("computational states must be 0..d-1 without gaps")

        phases = tuple(float(p) for p in self.node_phase) or (0.0,) * self.num_levels
        if len(phases) != self.num_levels:
            raise ValueError("node_phase length must equal num_levels")
        object.__setattr__(self, "node_phase", phases)

        # Compilation needs every pair of mapped levels reachable; paths may
        # run through unmapped levels.
        _, dist = _topology(self.num_levels, self.edges)
        if any(dist[levels[0]][lv] < 0 for lv in levels[1:]):
            raise ValueError("mapped levels are not mutually reachable")

    # -- queries ---------------------------------------------------------

    def state_order(self) -> list[str]:
        """Canonical matrix-index order: computational states, then ancillas."""
        return canonical_state_order(self.logical_map)

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

    def state_at(self, level: int) -> str | None:
        for s, lv in self.logical_map.items():
            if lv == level:
                return s
        return None

    def is_adjacent(self, level_a: int, level_b: int) -> bool:
        return (min(level_a, level_b), max(level_a, level_b)) in self.edges

    def shortest_level_path(self, src: int, dst: int) -> list[int]:
        """Lexicographically smallest shortest level path from src to dst."""
        adj, dist = _topology(self.num_levels, self.edges)
        if dist[src][dst] < 0:
            raise ValueError(f"levels {src} and {dst} are disconnected")
        path = [src]
        cur = src
        while cur != dst:
            cur = next(n for n in adj[cur] if dist[n][dst] == dist[cur][dst] - 1)
            path.append(cur)
        return path

    # -- copy-on-write updates -------------------------------------------

    def _clone(self, **fields) -> "CouplingGraph":
        """Copy with updated fields, skipping re-validation (and the frozen
        __setattr__).  Only for updates that cannot break the invariants
        (swaps, phase changes)."""
        g = object.__new__(CouplingGraph)
        g.__dict__.update(self.__dict__, **fields)
        return g

    def with_phase_added(self, level: int, phi: float) -> "CouplingGraph":
        phases = list(self.node_phase)
        phases[level] = (phases[level] + phi) % _TWO_PI
        return self._clone(node_phase=tuple(phases))

    def apply_pulse(self, pulse: RotationGate) -> "CouplingGraph":
        """Graph state after a reordering pulse: swap the two levels'
        logical content and stored phases, then add the pulse's deposits."""
        a, b = pulse.level_low, pulse.level_high
        if not self.is_adjacent(a, b):
            raise ValueError(f"pulse on non-coupled levels ({a},{b})")
        if not math.isclose(abs(pulse.theta), math.pi, rel_tol=0, abs_tol=1e-12):
            raise ValueError("reordering pulses must have |theta| == pi")
        sign = 1.0 if pulse.theta > 0 else -1.0
        dep_a = -pulse.phi - sign * math.pi / 2
        dep_b = pulse.phi - sign * math.pi / 2

        mapping = dict(self.logical_map)
        sa, sb = self.state_at(a), self.state_at(b)
        if sa is not None:
            mapping[sa] = b
        if sb is not None:
            mapping[sb] = a

        phases = list(self.node_phase)
        phases[a], phases[b] = phases[b], phases[a]
        phases[a] = (phases[a] + dep_a) % _TWO_PI
        phases[b] = (phases[b] + dep_b) % _TWO_PI
        return self._clone(logical_map=mapping, node_phase=tuple(phases))


@dataclass(frozen=True)
class RoutingPlan:
    """Reordering pulses that bring one state adjacent to another, and the
    graph after applying them."""

    pulses: tuple
    resulting_graph: CouplingGraph


def plan_routing(graph: CouplingGraph, state_i, state_j) -> RoutingPlan:
    """Move state_j node-by-node along a shortest path until it is adjacent
    to state_i (which stays put)."""
    la = graph.level_of(state_i)
    lb = graph.level_of(state_j)
    if la == lb:
        raise ValueError("cannot route a state to itself")
    if graph.is_adjacent(la, lb):
        return RoutingPlan((), graph)
    path = graph.shortest_level_path(lb, la)
    pulses = []
    g = graph
    for prev, nxt in zip(path[:-2], path[1:-1]):
        pulse = reorder_pulse(prev, nxt)
        pulses.append(pulse)
        g = g.apply_pulse(pulse)
    return RoutingPlan(tuple(pulses), g)


def routed_levels(graph: CouplingGraph, levels: list, i: int, j: int) -> list:
    """The tracked states' levels (levels[k] is state k's) after plan_routing
    brings state j next to state i: each level between them hands its content
    back one hop, and j lands next to i.  Builds no pulse and no graph."""
    path = graph.shortest_level_path(levels[j], levels[i])
    state = {lv: k for k, lv in enumerate(levels)}
    moved = list(levels)
    for back, lv in zip(path, path[1:-1]):
        if lv in state:
            moved[state[lv]] = back
    moved[j] = path[-2]
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
    g = graph
    for gate in gates:
        if isinstance(gate, VirtualZGate):
            if gate.level >= g.num_levels:
                raise ValueError(f"gate level {gate.level} out of range")
            # Recorded, not executed: the level now owes this phase, which
            # is the opposite sign of a physically deposited one.
            g = g.with_phase_added(gate.level, -gate.phi)
            continue
        if gate.level_high >= g.num_levels:
            raise ValueError(f"gate levels out of range: {gate}")
        if gate.routing:
            out.append(gate)
            g = g.apply_pulse(gate)
        else:
            out.append(conjugated(gate, g.node_phase))
    return out, g


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
        levels = int(doc["levels"])
        edges = frozenset((int(a), int(b)) for a, b in doc["edges"])
        mapping = {str(k): int(v) for k, v in doc["logical_map"].items()}
        ancillas = frozenset(str(s) for s in doc.get("ancillas", ()))
        phases = tuple(float(p) for p in doc.get("node_phase", ()))
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
