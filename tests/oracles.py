"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: transitive closure by Warshall's
algorithm, cycle enumeration by checking every short edge tuple, arrival
paths by brute-force walk enumeration or by per-length walk counting, the
finitary lattice by a sweep over all 2^|V| vertex subsets.  None of it
shares code with the package under test, except that the exitless-cycle
scan filters the package's all-cycles search, which shares nothing with the
condensation it is compared against.

The algebra oracles at the end decide centrality and the center's relations
by full products and commutators in normal form, the search that the
library's local certificate replaces; they are quadratic in the size of the
generators, so they only run on small inputs.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, product

from ckcenter import (
    Cycle,
    Graph,
    SimplicityReport,
    arrival_paths,
    commutator,
    cycle_rotation_sum,
    cycles,
    exits,
    generators,
    multiply,
    star,
    unit,
    zero,
)
from ckcenter.algebra import AlgebraElement, Monomial
from ckcenter.graphs import GraphError, Path


def reach_pairs(g: Graph) -> set[tuple[str, str]]:
    verts = list(g.vertices)
    pairs = {(v, v) for v in verts}
    pairs.update((e.src, e.dst) for e in g.edges)
    for k in verts:
        for i in verts:
            if (i, k) not in pairs:
                continue
            for j in verts:
                if (k, j) in pairs:
                    pairs.add((i, j))
    return pairs


def oracle_descendants(g: Graph, v: str) -> frozenset[str]:
    pairs = reach_pairs(g)
    return frozenset(w for w in g.vertices if (v, w) in pairs)


def all_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def oracle_is_hereditary(g: Graph, w: frozenset[str], pairs=None) -> bool:
    pairs = pairs if pairs is not None else reach_pairs(g)
    return all((u, x) not in pairs or x in w for u in w for x in g.vertices)


def oracle_hereditary_sets(g: Graph) -> list[frozenset[str]]:
    pairs = reach_pairs(g)
    return [w for w in all_subsets(g.vertices) if oracle_is_hereditary(g, w, pairs)]


def oracle_is_saturated(g: Graph, w: frozenset[str]) -> bool:
    for v in g.vertices:
        if v in w:
            continue
        out = g.out_edges(v)
        if out and all(e.dst in w for e in out):
            return False
    return True


def oracle_saturation(g: Graph, w: frozenset[str]) -> frozenset[str]:
    best = None
    pairs = reach_pairs(g)
    for cand in all_subsets(g.vertices):
        if not (w <= cand and oracle_is_hereditary(g, cand, pairs) and oracle_is_saturated(g, cand)):
            continue
        if best is None or len(cand) < len(best):
            best = cand
    return best


def oracle_annihilator(g: Graph, w: frozenset[str]) -> frozenset[str]:
    pairs = reach_pairs(g)
    return frozenset(v for v in g.vertices if all((v, t) not in pairs for t in w))


def oracle_cycles(g: Graph) -> set[tuple[str, ...]]:
    """Every closed edge tuple with distinct sources, up to length |V|,
    rotated to start at its smallest source vertex."""
    found = set()
    for n in range(1, len(g.vertices) + 1):
        for combo in product(g.edges, repeat=n):
            if any(combo[i].dst != combo[(i + 1) % n].src for i in range(n)):
                continue
            srcs = [e.src for e in combo]
            if len(set(srcs)) != n:
                continue
            k = srcs.index(min(srcs))
            found.add(tuple(e.id for e in combo[k:] + combo[:k]))
    return found


def all_walks(g: Graph, max_len: int):
    """Every path as (source, edge id tuple), lengths 0 through max_len."""
    walks = [(v, ()) for v in g.vertices]
    frontier = walks[:]
    for _ in range(max_len):
        nxt = []
        for src, eids in frontier:
            at = g.edge(eids[-1]).dst if eids else src
            for e in g.out_edges(at):
                nxt.append((src, eids + (e.id,)))
        walks.extend(nxt)
        frontier = nxt
    return walks


def brute_arrival_paths(g: Graph, w: frozenset[str], max_len: int) -> set[tuple[str, tuple[str, ...]]]:
    """Arrival paths up to max_len by filtering every walk: range in w,
    every edge source outside w."""
    out = set()
    for src, eids in all_walks(g, max_len):
        if not eids:
            if src in w:
                out.add((src, eids))
            continue
        if any(g.edge(eid).src in w for eid in eids):
            continue
        if g.edge(eids[-1]).dst in w:
            out.add((src, eids))
    return out


def arrival_counts(g: Graph, w: frozenset[str], max_len: int) -> list[int]:
    """counts[n] = number of arrival paths of length n, by dynamic
    programming on walk counts instead of materializing walks."""
    counts = [len(w)]
    # f[v] = number of arrival paths of the current length starting at v
    f = {v: sum(1 for e in g.out_edges(v) if e.dst in w) for v in g.vertices if v not in w}
    for _ in range(max_len):
        counts.append(sum(f.values()))
        f = {
            v: sum(f[e.dst] for e in g.out_edges(v) if e.dst not in w)
            for v in f
        }
    return counts


def oracle_is_finitary(g: Graph, w: frozenset[str]) -> bool:
    """Bounded-enumeration criterion: arrival paths longer than |V setminus w|
    exist iff they keep existing forever."""
    bound = 2 * len(g.vertices)
    counts = arrival_counts(g, w, bound)
    return all(c == 0 for c in counts[len(g.vertices) - len(w) + 1 :])


def size_then_members(w: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(w), tuple(sorted(w)))


def oracle_lattice(g: Graph) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    """The subset sweep: double annihilators of all 2^|V| vertex subsets,
    kept when empty or finitary, sorted by (size, members).  Atoms are the
    minimal nonempty elements."""
    pairs = reach_pairs(g)
    desc = {v: frozenset(w for w in g.vertices if (v, w) in pairs) for v in g.vertices}

    def ann(w):
        return frozenset(v for v in g.vertices if desc[v].isdisjoint(w))

    candidates = {ann(ann(s)) for s in all_subsets(g.vertices)}
    elements = sorted(
        (w for w in candidates if not w or oracle_is_finitary(g, w)),
        key=size_then_members,
    )
    atoms = [w for w in elements if w and not any(x and x < w for x in elements)]
    return elements, atoms


def oracle_ne_cycles(g: Graph) -> list[Cycle]:
    """Every cycle from the all-cycles search that has no exit: no edge
    leaves a cycle vertex except the cycle's own."""
    out = []
    for c in cycles(g):
        on = {g.edge(eid).src for eid in c.edges}
        if all(e.id in c.edges for e in g.edges if e.src in on):
            out.append(c)
    return out


def oracle_classify_atom(g: Graph, atom: frozenset[str]) -> list[Cycle]:
    """Every finitary exitless cycle whose vertex set has the atom as its
    double annihilator."""
    out = []
    for c in oracle_ne_cycles(g):
        vs = frozenset(c.vertices(g))
        if oracle_is_finitary(g, vs) and oracle_annihilator(g, oracle_annihilator(g, vs)) == atom:
            out.append(c)
    return out


def oracle_simplicity(g: Graph) -> SimplicityReport:
    """Simplicity by the scan over vertices: the smallest proper saturated
    closure of one vertex's descendants, failing that the first exitless
    cycle the all-cycles search meets.  That search anchors each cycle at
    its smallest vertex and takes the anchors in order."""
    pairs = reach_pairs(g)
    proper = []
    for v in g.vertices:
        t = {w for w in g.vertices if (v, w) in pairs}
        grew = True
        while grew:
            absorb = [
                u for u in g.vertices
                if u not in t and g.out_edges(u) and all(e.dst in t for e in g.out_edges(u))
            ]
            t.update(absorb)
            grew = bool(absorb)
        if len(t) < len(g.vertices):
            proper.append(frozenset(t))
    if proper:
        return SimplicityReport(False, witness_subset=min(proper, key=size_then_members))
    exitless = oracle_ne_cycles(g)
    if exitless:
        first = min(exitless, key=lambda c: g.edge(c.edges[0]).src)
        return SimplicityReport(False, witness_cycle=first)
    return SimplicityReport(True)


# ---------------------------------------------------------------------------
# algebra: products and commutators instead of local certificates

def oracle_is_central(a: AlgebraElement) -> tuple[bool, str | None]:
    """Check a against every generator; on failure, name the first generator
    with a nonzero commutator."""
    for label, gen in generators(a.graph):
        if commutator(a, gen).terms:
            return False, label
    return True, None


def oracle_verify(g: Graph, atoms, idempotents, laurent) -> bool:
    """The center's relations by products: the idempotents sum to 1, are
    self-adjoint, central and pairwise orthogonal; each Laurent pair is
    central, absorbed by its idempotent, inverse over it, and star-paired."""
    total = zero(g)
    for e in idempotents:
        total = total + e
    if total != unit(g):
        return False
    for i, ei in enumerate(idempotents):
        if multiply(ei, ei) != ei:
            return False
        if star(ei) != ei:
            return False
        if not oracle_is_central(ei)[0]:
            return False
        for ej in idempotents[i + 1 :]:
            if not multiply(ei, ej).is_zero():
                return False
    for ei, pair in zip(idempotents, laurent):
        if pair is None:
            continue
        plus, minus = pair
        for zc in (plus, minus):
            if not oracle_is_central(zc)[0]:
                return False
            if multiply(ei, zc) != zc or multiply(zc, ei) != zc:
                return False
        if multiply(plus, minus) != ei or multiply(minus, plus) != ei:
            return False
        if star(plus) != minus:
            return False
    return True


def oracle_conjugated_cycle_power(g: Graph, cycle: Cycle, k: int) -> AlgebraElement:
    """Sum over the cycle's arrival paths p of p z^k p*, by three products
    per path, z^k a product of rotation sums (the corner unit for k = 0)."""
    if exits(g, cycle):
        raise GraphError(f"cycle {cycle.edges} has an exit")
    arr = arrival_paths(g, cycle.vertex_set(g))
    if not arr.is_finite:
        raise GraphError(f"cycle {cycle.edges} is not finitary")
    if k == 0:
        core = AlgebraElement(g, {Monomial(Path(v), Path(v)): 1 for v in cycle.vertex_set(g)})
    else:
        z = cycle_rotation_sum(g, cycle)
        base = z if k > 0 else star(z)
        core = base
        for _ in range(abs(k) - 1):
            core = multiply(core, base)
    acc = zero(g)
    for p in arr.paths:
        pe = AlgebraElement(g, {Monomial(p, Path(p.range(g))): 1})
        acc = acc + multiply(multiply(pe, core), star(pe))
    return acc


# ---------------------------------------------------------------------------
# corpora

def exhaustive_graphs(max_vertices: int = 3, max_edges: int = 4) -> list[Graph]:
    """Every multigraph with 1..max_vertices vertices and 0..max_edges edges,
    one representative per edge multiset over ordered vertex pairs."""
    graphs = []
    for n in range(1, max_vertices + 1):
        verts = [f"u{i}" for i in range(1, n + 1)]
        slots = [(a, b) for a in verts for b in verts]
        for m in range(max_edges + 1):
            for chosen in combinations_with_replacement(slots, m):
                edges = [
                    {"id": f"x{i}", "src": a, "dst": b}
                    for i, (a, b) in enumerate(chosen, start=1)
                ]
                graphs.append(Graph(verts, [(e["id"], e["src"], e["dst"]) for e in edges]))
    return graphs


def random_graph(rng: random.Random, max_vertices: int = 5, max_edges: int = 7) -> Graph:
    n = rng.randint(1, max_vertices)
    verts = [f"u{i}" for i in range(1, n + 1)]
    m = rng.randint(0, max_edges)
    edges = [
        (f"x{i}", rng.choice(verts), rng.choice(verts))
        for i in range(1, m + 1)
    ]
    return Graph(verts, edges)


def random_corpus(seed: int, count: int, max_vertices: int = 5, max_edges: int = 7) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng, max_vertices, max_edges) for _ in range(count)]
