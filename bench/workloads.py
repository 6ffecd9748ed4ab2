"""Seeded inputs for the ckcenter benchmark, and what each op must print.

An op is one CLI command run on one generated graph, which the command
reads as JSON on stdin.  Every graph family is built so that its answer is
known from the construction alone: the center type, and where the command
prints them, the number of lattice elements, the number of cycles, the
number of terms in each central generator, or the candidate monomial count
of the degree-bounded solver.  Nothing here imports ckcenter, so the
expectations are independent of the code under test.

The seed relabels vertices and edges, reorders the edge lists and draws the
random sparse graphs of the structure workload; every other shape is fixed,
so the cost of a pass changes little from one seed to the next.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from math import comb, factorial

WORKLOADS = ("structure", "generators", "crosscheck")

DEFAULT_SEED = 1

# cross-check --degree 2 runs with this candidate guard; degree 1 keeps the
# CLI default, which the guard expectation below mirrors.
DEGREE2_BOUND = 400
DEFAULT_ORACLE_BOUND = 150


@dataclass(frozen=True)
class Expect:
    """What a correct run of one op prints.  None means "not checked"."""

    exit_code: int = 0
    c: int | None = None
    t: int | None = None
    lattice_elements: int | None = None
    cycles: int | None = None
    generator_terms: tuple[int, ...] | None = None
    candidates: int | None = None


@dataclass(frozen=True)
class Op:
    family: str
    argv: tuple[str, ...]
    graph_json: str
    expect: Expect


class _GraphDraft:
    """Vertices are ints while building; ids are assigned once at the end."""

    def __init__(self) -> None:
        self.n = 0
        self.edges: list[tuple[int, int]] = []

    def vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def vertices(self, k: int) -> list[int]:
        return [self.vertex() for _ in range(k)]

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def cycle(self, length: int) -> list[int]:
        vs = self.vertices(length)
        for i, v in enumerate(vs):
            self.edge(v, vs[(i + 1) % length])
        return vs

    def to_json(self, rng: random.Random) -> str:
        """Random vertex and edge ids, edges listed in random order."""
        vnames = [f"v{i}" for i in range(1, self.n + 1)]
        rng.shuffle(vnames)
        order = list(range(len(self.edges)))
        rng.shuffle(order)
        enames = [f"e{i}" for i in range(1, len(self.edges) + 1)]
        rng.shuffle(enames)
        doc = {
            "vertices": sorted(vnames, key=lambda s: int(s[1:])),
            "edges": [
                {"id": enames[k], "src": vnames[self.edges[k][0]], "dst": vnames[self.edges[k][1]]}
                for k in order
            ],
        }
        return json.dumps(doc)


# ---------------------------------------------------------------------------
# structure families: (graph, expectation shared by center and analyze)

def fan(n: int) -> tuple[_GraphDraft, Expect]:
    """One hub with an edge to each of n-1 sinks: every sink is an atom."""
    b = _GraphDraft()
    hub = b.vertex()
    for s in b.vertices(n - 1):
        b.edge(hub, s)
    return b, Expect(c=n - 1, t=0, lattice_elements=2 ** (n - 1), cycles=0)


def chain(n: int) -> tuple[_GraphDraft, Expect]:
    b = _GraphDraft()
    vs = b.vertices(n)
    for a, c in zip(vs, vs[1:]):
        b.edge(a, c)
    return b, Expect(c=1, t=0, lattice_elements=2, cycles=0)


def ladder(diamonds: int) -> tuple[_GraphDraft, Expect]:
    """Diamonds in series ending in one sink: 3*diamonds + 1 vertices."""
    b = _GraphDraft()
    top = b.vertex()
    for _ in range(diamonds):
        left, right, bottom = b.vertices(3)
        for mid in (left, right):
            b.edge(top, mid)
            b.edge(mid, bottom)
        top = bottom
    return b, Expect(c=1, t=0, lattice_elements=2, cycles=0)


def cycle_with_tail(length: int, tail: int) -> tuple[_GraphDraft, Expect]:
    """An exitless cycle fed by a chain: a single T summand."""
    b = _GraphDraft()
    cyc = b.cycle(length)
    prev = cyc[0]
    for v in b.vertices(tail):
        b.edge(v, prev)
        prev = v
    return b, Expect(c=0, t=1, lattice_elements=2, cycles=1)


def complete(n: int) -> tuple[_GraphDraft, Expect]:
    """Complete digraph without loops: strongly connected, one C summand."""
    b = _GraphDraft()
    vs = b.vertices(n)
    for a in vs:
        for c in vs:
            if a != c:
                b.edge(a, c)
    simple_cycles = sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))
    return b, Expect(c=1, t=0, lattice_elements=2, cycles=simple_cycles)


def random_sparse(rng: random.Random, n: int, pieces: str) -> tuple[_GraphDraft, Expect]:
    """A random sparse multigraph whose center type follows from its shape.

    The graph is disjoint pieces plus one or two acyclic head vertices with
    edges into any piece.  Each piece ends in one terminal, and its other
    vertices (feeders) form a chain into the terminal, with random extra
    forward edges, parallel ones allowed.  One letter of `pieces` per piece:

    - "s": the terminal is a sink; loops and back edges along the chain may
      add cycles with exits.  A C atom.
    - "t": the terminal is an exitless cycle and the feeders stay acyclic.
      A T atom.
    - "c": the terminal is an exitless cycle, and a loop or back edge gives
      the feeders a cycle, so the cycle is reached by infinitely many paths.
      A C atom.

    The head stays acyclic, so it never makes an atom infinite.  The piece
    kinds are fixed by the caller, because T atoms cost more to verify.
    """
    b = _GraphDraft()
    head = rng.randint(1, min(2, n - 3 * len(pieces)))
    sizes = [3] * len(pieces)
    for _ in range(n - head - 3 * len(pieces)):
        sizes[rng.randrange(len(pieces))] += 1
    targets: list[int] = []
    for kind, size in zip(pieces, sizes):
        terminal = [b.vertex()] if kind == "s" else b.cycle(rng.randint(1, min(3, size - 1)))
        feeders = b.vertices(size - len(terminal))
        for i, f in enumerate(feeders):
            later = feeders[i + 1:] + terminal
            b.edge(f, later[0])
            if rng.random() < 0.5:
                b.edge(f, rng.choice(later))
        if kind == "c" or (kind == "s" and rng.random() < 0.5):
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(len(feeders))
                b.edge(feeders[j], feeders[rng.randrange(j + 1)])
        targets.extend(feeders + terminal)
    heads = b.vertices(head)
    for i, h in enumerate(heads):
        for _ in range(rng.randint(1, 2)):
            b.edge(h, rng.choice(heads[i + 1:] + targets))
    c, t = len(pieces) - pieces.count("t"), pieces.count("t")
    return b, Expect(c=c, t=t, lattice_elements=2 ** (c + t))


# ---------------------------------------------------------------------------
# generators family

def fed_terminals(cycle_lengths: list[int], sinks: int, stages: str) -> tuple[_GraphDraft, Expect]:
    """Exitless cycles and sinks all fed from one shared chain of stages.

    Reading stages bottom-up, "p" is a pair of parallel edges and "d" a
    diamond; both double the paths from the vertices above them.  Because
    every feeder reaches every terminal, each terminal alone is an atom and
    its arrival paths are all the feeder paths into it, about 2^(stages+1)
    of them.  A correct center then prints e(X) with one term per arrival
    path of X, and for a cycle X both z(X)^1 and z(X)^-1 with one term per
    arrival path as well.
    """
    b = _GraphDraft()
    terminals = [b.cycle(k) for k in cycle_lengths] + [[b.vertex()] for _ in range(sinks)]
    top = b.vertex()
    for term in terminals:
        b.edge(top, term[0])
    for kind in stages:
        u = b.vertex()
        if kind == "p":
            b.edge(u, top)
            b.edge(u, top)
        else:
            left, right = b.vertices(2)
            for mid in (left, right):
                b.edge(u, mid)
                b.edge(mid, top)
        top = u
    fed = set(range(b.n)).difference(*terminals)
    terms = []
    for i, term in enumerate(terminals):
        count = len(term) + _paths_into(b, set(term), fed)
        terms.extend([count] * (3 if i < len(cycle_lengths) else 1))
    return b, Expect(c=sinks, t=len(cycle_lengths), generator_terms=tuple(sorted(terms)))


def _paths_into(b: _GraphDraft, target: set[int], region: set[int]) -> int:
    """Number of paths that start in the acyclic region and end at their
    first vertex in target."""
    out: dict[int, list[int]] = {}
    for src, dst in b.edges:
        out.setdefault(src, []).append(dst)
    memo: dict[int, int] = {}

    def count(v: int) -> int:
        if v not in memo:
            memo[v] = sum(
                1 if w in target else count(w) if w in region else 0
                for w in out.get(v, ())
            )
        return memo[v]

    return sum(count(v) for v in region)


# ---------------------------------------------------------------------------
# crosscheck family

def random_multigraph(rng: random.Random, max_vertices: int = 6, max_edges: int = 9) -> _GraphDraft:
    b = _GraphDraft()
    b.vertices(rng.randint(1, max_vertices))
    for _ in range(rng.randint(0, max_edges)):
        b.edge(rng.randrange(b.n), rng.randrange(b.n))
    return b


def candidate_count(graph_json: str, degree: int) -> int:
    """Basis monomials p·q* with |p|, |q| <= degree, as the solver counts
    them: pairs of paths with a common range, minus the pairs whose halves
    both end in the special (smallest id) edge leaving one vertex."""
    doc = json.loads(graph_json)
    edges = [(e["id"], e["src"], e["dst"]) for e in doc["edges"]]
    ending = {v: [1] for v in doc["vertices"]}  # ending[v][k]: paths of length k into v
    for k in range(1, degree + 1):
        for v in ending:
            ending[v].append(sum(ending[src][k - 1] for _, src, dst in edges if dst == v))
    special: dict[str, str] = {}
    for eid, src, _ in edges:
        if src not in special or eid < special[src]:
            special[src] = eid
    upto = {v: sum(ks) for v, ks in ending.items()}
    shorter = {v: sum(ks[:degree]) for v, ks in ending.items()}
    return sum(n * n for n in upto.values()) - sum(shorter[src] ** 2 for src in special)


# ---------------------------------------------------------------------------
# workloads

STRUCTURE_SIZES = {
    "fan": (11, 12, 13, 14),
    "chain": (10, 11, 12, 13, 14),
    "ladder": (3, 4),
    "cycle_tail": ((1, 9), (2, 9), (3, 8), (4, 8), (3, 10), (5, 8)),
    "complete": (6, 7, 8),
    "random": (10,) * 12 + (11,) * 12 + (12,) * 11,
}
# Piece kinds of the random sparse graphs, in turn (see random_sparse).
RANDOM_PIECES = ("s", "st", "sc", "t", "sst", "stc")

# (doublings, number of ops): about 2^(doublings+1) arrival paths per atom.
GENERATOR_MIX = ((3, 36), (4, 36), (5, 26), (6, 9), (7, 2), (8, 1))
GENERATOR_MAX_VERTICES = 12

CROSSCHECK_GRAPHS = 200


def structure_ops(rng: random.Random) -> list[Op]:
    built = (
        [(f"fan{n}", *fan(n)) for n in STRUCTURE_SIZES["fan"]]
        + [(f"chain{n}", *chain(n)) for n in STRUCTURE_SIZES["chain"]]
        + [(f"ladder{d}", *ladder(d)) for d in STRUCTURE_SIZES["ladder"]]
        + [(f"cycle{k}+tail{t}", *cycle_with_tail(k, t)) for k, t in STRUCTURE_SIZES["cycle_tail"]]
        + [(f"K{n}", *complete(n)) for n in STRUCTURE_SIZES["complete"]]
        + [(f"random{n}-{pieces}", *random_sparse(rng, n, pieces))
           for n, pieces in zip(STRUCTURE_SIZES["random"], itertools.cycle(RANDOM_PIECES))]
    )
    ops = []
    for family, b, expect in built:
        graph = b.to_json(rng)
        ops.append(Op(family, ("center", "-"), graph, expect))
        ops.append(Op(family, ("analyze", "-"), graph, expect))
    return ops


def generators_ops(rng: random.Random) -> list[Op]:
    """The numbers of cycles (1-3) and sinks (1-2) follow the op index; cycle
    lengths (1-4) and which stages are diamonds come from one fixed random
    stream, within the vertex budget.  So the shapes are the same for every
    seed, which only relabels them: shapes drawn per seed moved op_p50_ms
    by 8% from seed to seed."""
    shapes = random.Random("generators-shapes")
    ops = []
    for doublings, count in GENERATOR_MIX:
        for i in range(count):
            sinks = 1 + (i // 3) % 2
            room = GENERATOR_MAX_VERTICES - 1 - doublings - sinks
            cycles = min(1 + i % 3, room)
            lengths = [shapes.randint(1, 4) for _ in range(cycles)]
            while sum(lengths) > room:
                lengths[lengths.index(max(lengths))] -= 1
            room -= sum(lengths)
            stages = ""
            for _ in range(doublings):
                diamond = room >= 2 and shapes.random() < 0.3
                room -= 2 * diamond
                stages += "d" if diamond else "p"
            b, expect = fed_terminals(lengths, sinks, stages)
            family = f"fed{'+'.join(map(str, lengths))}s{sinks}-{stages}"
            ops.append(Op(family, ("center", "-"), b.to_json(rng), expect))
    return ops


def crosscheck_ops(rng: random.Random) -> list[Op]:
    """The graph shapes are one fixed random sample, like a test corpus; the
    seed relabels them and reorders their edges.  Shapes drawn per seed
    moved op_p90_ms by up to 15% from seed to seed, even when stratified by
    candidate count, because a few graphs set the tail."""
    corpus = random.Random("crosscheck-corpus")
    ops = []
    for _ in range(CROSSCHECK_GRAPHS):
        graph = random_multigraph(corpus).to_json(rng)
        for degree, bound, extra in (
            (1, DEFAULT_ORACLE_BOUND, ()),
            (2, DEGREE2_BOUND, ("--oracle-bound", str(DEGREE2_BOUND))),
        ):
            k = candidate_count(graph, degree)
            expect = Expect(exit_code=1 if k > bound else 0, candidates=k)
            argv = ("cross-check", "-", "--degree", str(degree)) + extra
            ops.append(Op(f"random-d{degree}", argv, graph, expect))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    makers = {"structure": structure_ops, "generators": generators_ops, "crosscheck": crosscheck_ops}
    return makers[workload](random.Random(f"{workload}:{seed}"))


def input_digest(ops: list[Op]) -> str:
    """sha256 over every op's argv and graph, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.argv, op.graph_json]).encode())
        h.update(b"\n")
    return h.hexdigest()
