"""Finite directed multigraphs and the vertex-set combinatorics built on them.

Vertices and edges carry string identifiers; parallel edges and loops are
allowed.  Vertex subsets are plain frozensets.  The predicates and closures
here (descendants, hereditary and saturated sets, cycles, exits, the
condensation into strongly connected components, simplicity) form the
combinatorial layer the algebraic machinery is built on.

Everything in this module is a pure function of immutable values.  A Graph
computes its adjacency tables and its condensation once, on first use, and
caches them on the instance; they depend on nothing else, so all of it is
safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

VertexSet = frozenset[str]

# These characters are delimiters of the element text grammar; allowing them
# inside identifiers would make printed monomials ambiguous.
_RESERVED_ID_CHARS = set("*^·")


class GraphError(ValueError):
    """Malformed graph, unknown identifier, or violated precondition."""


class SizeLimitError(RuntimeError):
    """An enumeration guard was exceeded; raise the relevant limit to proceed."""


def _check_identifier(kind: str, value: object) -> str:
    if not isinstance(value, str) or not value:
        raise GraphError(f"{kind} id must be a nonempty string, got {value!r}")
    if any(ch.isspace() for ch in value) or set(value) & _RESERVED_ID_CHARS:
        raise GraphError(f"invalid {kind} id {value!r}: whitespace and *, ^, · are reserved")
    return value


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


class Graph:
    """Immutable directed multigraph with ordered, named vertices and edges."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple[str, str, str]] = ()):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        self._validate()

    def _validate(self) -> None:
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        seen: set[str] = set()
        for v in self.vertices:
            _check_identifier("vertex", v)
            if v in seen:
                raise GraphError(f"duplicate vertex id {v!r}")
            seen.add(v)
        edge_ids: set[str] = set()
        for e in self.edges:
            _check_identifier("edge", e.id)
            if e.id in edge_ids:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.id in seen:
                raise GraphError(f"edge id {e.id!r} collides with a vertex id")
            edge_ids.add(e.id)
            for endpoint in (e.src, e.dst):
                if endpoint not in seen:
                    raise GraphError(f"unknown vertex {endpoint!r} in edge {e.id!r}")

    @cached_property
    def vertex_set(self) -> VertexSet:
        return frozenset(self.vertices)

    @cached_property
    def _edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.src].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _targets(self) -> dict[str, dict[str, str]]:
        """Each vertex's out-edges as edge id -> range."""
        return {v: {e.id: e.dst for e in es} for v, es in self._out.items()}

    @cached_property
    def _position(self) -> dict[str, int]:
        """Each vertex's index in vertices and edge id's in edges (disjoint ids)."""
        return {x: i for xs in (self.vertices, (e.id for e in self.edges)) for i, x in enumerate(xs)}

    @cached_property
    def _in(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.dst].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._in[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    @cached_property
    def _condensation(self) -> Condensation:
        return _tarjan(self)

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.edges))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def vertex_subset(g: Graph, members: Iterable[str]) -> VertexSet:
    """Validate a collection of vertex ids against g and freeze it."""
    w = frozenset(members)
    unknown = w - g.vertex_set
    if unknown:
        raise GraphError(f"unknown vertex {min(unknown)!r}")
    return w


def set_sort_key(w: VertexSet) -> tuple[int, tuple[str, ...]]:
    return (len(w), tuple(sorted(w)))


# ---------------------------------------------------------------------------
# paths and cycles

class Path(NamedTuple):
    """A composable edge sequence; with no edges it is just its source vertex.
    A tuple, hashed in C; its len is the edge count."""

    source: str
    edges: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.edges)

    def range(self, g: Graph) -> str:
        return g.edge(self.edges[-1]).dst if self.edges else self.source

    def vertices(self, g: Graph) -> tuple[str, ...]:
        out = [self.source]
        for eid in self.edges:
            out.append(g.edge(eid).dst)
        return tuple(out)


def make_path(g: Graph, edge_ids: Iterable[str], source: str | None = None) -> Path:
    """Build a validated path; for zero-length paths pass the source vertex."""
    ids = tuple(edge_ids)
    if not ids:
        if source is None:
            raise GraphError("a zero-length path needs a source vertex")
        if source not in g.vertex_set:
            raise GraphError(f"unknown vertex {source!r}")
        return Path(source)
    at = g.edge(ids[0]).src
    if source is not None and source != at:
        raise GraphError(f"path source {source!r} does not match edge {ids[0]!r}")
    here = at
    for eid in ids:
        e = g.edge(eid)
        if e.src != here:
            raise GraphError(f"edges do not compose at {eid!r}")
        here = e.dst
    return Path(at, ids)


@dataclass(frozen=True)
class Cycle:
    """A closed path with pairwise distinct source vertices, stored in its
    canonical rotation: the first edge leaves the smallest vertex id."""

    edges: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def vertices(self, g: Graph) -> tuple[str, ...]:
        return tuple(g.edge(eid).src for eid in self.edges)

    def vertex_set(self, g: Graph) -> VertexSet:
        return frozenset(self.vertices(g))


def canonical_cycle(g: Graph, edge_ids: Iterable[str]) -> Cycle:
    ids = tuple(edge_ids)
    if not ids:
        raise GraphError("a cycle needs at least one edge")
    path = make_path(g, ids)
    if path.range(g) != path.source:
        raise GraphError("edge sequence is not closed")
    srcs = [g.edge(eid).src for eid in ids]
    if len(set(srcs)) != len(srcs):
        raise GraphError("cycle visits a vertex twice")
    k = srcs.index(min(srcs))
    return Cycle(ids[k:] + ids[:k])


# ---------------------------------------------------------------------------
# reachability

def reaches(g: Graph, targets: Iterable[str]) -> VertexSet:
    """All vertices from which some target is reachable (targets included)."""
    seen = set(vertex_subset(g, targets))
    stack = list(seen)
    while stack:
        v = stack.pop()
        for e in g.in_edges(v):
            if e.src not in seen:
                seen.add(e.src)
                stack.append(e.src)
    return frozenset(seen)


def descendants(g: Graph, v: str) -> VertexSet:
    """Vertices reachable from v by a path, v itself included."""
    return hereditary_closure(g, (v,))


def is_hereditary(g: Graph, w: Iterable[str]) -> bool:
    """True iff no edge leads from w out of w."""
    w = vertex_subset(g, w)
    return all(e.dst in w for v in w for e in g.out_edges(v))


def hereditary_closure(g: Graph, s: Iterable[str]) -> VertexSet:
    """Vertices reachable from s, s included; empty for empty s."""
    seen = set(vertex_subset(g, s))
    stack = list(seen)
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return frozenset(seen)


def sinks(g: Graph) -> VertexSet:
    return frozenset(v for v in g.vertices if not g.out_edges(v))


def is_saturated(g: Graph, w: Iterable[str]) -> bool:
    """True iff w is its own saturation: every non-sink outside w keeps an
    edge whose range is outside w.

    Defined for hereditary w only; anything else is rejected.
    """
    w = vertex_subset(g, w)
    return saturation(g, w) == w


def saturation(g: Graph, w: Iterable[str]) -> VertexSet:
    """Least saturated superset: absorb each non-sink once all its edges land
    inside.  Each vertex met counts its edges not yet inside, and each edge
    is counted once, from its range, so the pass is linear in what it
    absorbs and the edges into it."""
    w = vertex_subset(g, w)
    if not is_hereditary(g, w):
        raise GraphError(f"set {sorted(w)} is not hereditary")
    current = set(w)
    outside: dict[str, int] = {}
    stack = list(w)
    while stack:
        for e in g.in_edges(stack.pop()):
            u = e.src
            if u in current:
                continue
            outside[u] = outside.get(u, len(g.out_edges(u))) - 1
            if not outside[u]:
                current.add(u)
                stack.append(u)
    return frozenset(current)


# ---------------------------------------------------------------------------
# cycles, exits, simplicity

def cycles(g: Graph) -> list[Cycle]:
    """All cycles in canonical rotation, sorted by their edge id tuples.

    Each cycle is found once, by a DFS from its smallest vertex that never
    walks below it or out of its strongly connected component, which holds
    every cycle through it, on its own stack so that deep graphs cannot hit
    the recursion limit."""
    pos = {v: i for i, v in enumerate(sorted(g.vertices))}
    comp = {v: i for i, members in enumerate(condensation(g).components) for v in members}
    inner = {v: [e for e in g.out_edges(v) if comp[e.dst] == comp[v]] for v in g.vertices}
    found: list[Cycle] = []
    for anchor in sorted(g.vertices):
        apos = pos[anchor]
        trail: list[str] = []
        on_trail = {anchor}
        work = [(anchor, iter(inner[anchor]))]
        while work:
            v, pending = work[-1]
            for e in pending:
                if e.dst == anchor:
                    found.append(Cycle(tuple(trail) + (e.id,)))
                elif e.dst not in on_trail and pos[e.dst] > apos:
                    on_trail.add(e.dst)
                    trail.append(e.id)
                    work.append((e.dst, iter(inner[e.dst])))
                    break
            else:
                work.pop()
                if trail:
                    trail.pop()
                    on_trail.discard(v)
    return sorted(found, key=lambda c: c.edges)


def exits(g: Graph, cycle: Cycle) -> frozenset[str]:
    """Edges that leave a cycle vertex but are not part of the cycle."""
    return frozenset(e.id for v in cycle.vertices(g) for e in g.out_edges(v)) - set(cycle.edges)


class Condensation(NamedTuple):
    """The strongly connected components of a graph seen from below.

    A terminal component has no edge leaving it; every sink is one.  Bit i
    of a mask stands for terminal[i].  below[v] is the mask of the terminal
    components reachable from v, and cycle_masks holds below[v] for each
    non-terminal component with a cycle (several vertices, or a loop).
    components lists every component after every component it reaches, and
    cyclic holds the vertices that lie on a cycle.
    """

    terminal: tuple[tuple[str, ...], ...]
    below: dict[str, int]
    cycle_masks: frozenset[int]
    components: tuple[tuple[str, ...], ...]
    cyclic: VertexSet


def condensation(g: Graph) -> Condensation:
    """The condensation of g, computed once per Graph instance."""
    return g._condensation


def _tarjan(g: Graph) -> Condensation:
    """Tarjan's strongly connected components, with an explicit stack so
    that deep graphs cannot exhaust the interpreter's recursion limit.

    Tarjan emits each component after every component it reaches, so one
    pass in emission order fills in the masks.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    terminal: list[tuple[str, ...]] = []
    below: dict[str, int] = {}
    cycle_masks: set[int] = set()
    components: list[tuple[str, ...]] = []
    cyclic: set[str] = set()

    def close(members: list[str]) -> None:
        components.append(tuple(members))
        inside = set(members)
        if len(members) > 1 or any(e.dst == members[0] for e in g.out_edges(members[0])):
            cyclic.update(members)
        leaving = [e.dst for v in members for e in g.out_edges(v) if e.dst not in inside]
        if leaving:
            mask = 0
            for w in leaving:
                mask |= below[w]
            if members[0] in cyclic:
                cycle_masks.add(mask)
        else:
            mask = 1 << len(terminal)
            terminal.append(tuple(members))
        for v in members:
            below[v] = mask

    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g.out_edges(root)))]
        while work:
            v, pending = work[-1]
            for e in pending:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g.out_edges(w))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    close(members)
    return Condensation(
        tuple(terminal), below, frozenset(cycle_masks), tuple(components), frozenset(cyclic)
    )


def ne_cycles(g: Graph) -> list[Cycle]:
    """Cycles without exits, sorted by their edge id tuples.

    A cycle has no exit exactly when it is a terminal strongly connected
    component whose vertices all have out-degree 1, so each one is read off
    the condensation.  Their vertex sets are always hereditary.
    """
    found = []
    for members in condensation(g).terminal:
        if all(len(g.out_edges(v)) == 1 for v in members):
            at = min(members)
            ids = []
            for _ in members:
                (e,) = g.out_edges(at)
                ids.append(e.id)
                at = e.dst
            found.append(Cycle(tuple(ids)))
    return sorted(found, key=lambda c: c.edges)


def find_cycle_within(g: Graph, allowed: Iterable[str]) -> Cycle | None:
    """First cycle (in DFS order) whose edges stay inside the allowed set.
    The DFS keeps its own stack, so deep graphs cannot hit the recursion
    limit."""
    allowed = vertex_subset(g, allowed)
    state: dict[str, str] = {}
    for root in sorted(allowed, key=g._position.__getitem__):
        if root in state:
            continue
        state[root] = "active"
        trail: list[Edge] = []
        work = [(root, iter(g.out_edges(root)))]
        while work:
            v, pending = work[-1]
            for e in pending:
                if e.dst not in allowed:
                    continue
                if e.dst not in state:
                    state[e.dst] = "active"
                    trail.append(e)
                    work.append((e.dst, iter(g.out_edges(e.dst))))
                    break
                if state[e.dst] == "active":
                    verts = [root] + [t.dst for t in trail]
                    k = verts.index(e.dst)
                    return canonical_cycle(g, tuple(t.id for t in trail[k:]) + (e.id,))
            else:
                state[v] = "done"
                work.pop()
                if trail:
                    trail.pop()
    return None


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    witness_subset: VertexSet | None = None
    witness_cycle: Cycle | None = None


def is_simple_graph(g: Graph) -> SimplicityReport:
    """Simplicity criterion: no proper nonempty hereditary saturated subset
    and every cycle has an exit.

    Saturation is monotone and every nonempty hereditary set contains a
    terminal component, which is hereditary itself, so a proper hereditary
    saturated subset exists iff some terminal component saturates to a
    proper set, and the smallest such saturation (by size, then members) is
    the smallest of all.  It is the witness; failing that, the exitless
    cycle.  The saturations of distinct terminal components are disjoint,
    as every path from an absorbed vertex ends in its own component, so the
    scan is linear.  Without a proper subset there is only one terminal
    component, so at most one cycle lacks an exit.
    """
    proper = []
    for members in condensation(g).terminal:
        t = saturation(g, members)
        if t != g.vertex_set:
            proper.append(t)
    if proper:
        return SimplicityReport(False, witness_subset=min(proper, key=set_sort_key))
    nec = ne_cycles(g)
    if nec:
        return SimplicityReport(False, witness_cycle=nec[0])
    return SimplicityReport(True)


# ---------------------------------------------------------------------------
# JSON interface

def parse_graph(text: str) -> Graph:
    """Parse the graph JSON format.

    ``{"vertices": ["v1", ...], "edges": [{"id": ..., "src": ..., "dst": ...}, ...]}``

    Exactly these keys; unknown keys, duplicate ids, dangling endpoints and
    an empty vertex list are all errors that name the offending token.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("top-level JSON value must be an object")
    for key in doc:
        if key not in ("vertices", "edges"):
            raise GraphError(f"unknown key {key!r}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise GraphError(f"missing key {key!r}")
    if not isinstance(doc["vertices"], list):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(doc["edges"], list):
        raise GraphError("'edges' must be a list of objects")
    edges = []
    for item in doc["edges"]:
        if not isinstance(item, dict):
            raise GraphError(f"edge entry {item!r} must be an object")
        for key in item:
            if key not in ("id", "src", "dst"):
                raise GraphError(f"unknown key {key!r} in edge {item.get('id')!r}")
        for key in ("id", "src", "dst"):
            if key not in item:
                raise GraphError(f"missing key {key!r} in edge {item!r}")
            if not isinstance(item[key], str):
                raise GraphError(f"edge field {key!r} must be a string, got {item[key]!r}")
        edges.append(Edge(item["id"], item["src"], item["dst"]))
    return Graph(doc["vertices"], edges)


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
    }
