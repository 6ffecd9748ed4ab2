"""Independent reference implementations used only to check the library.

Everything here is deliberately naive: transitive closure by Warshall's
algorithm, cycle enumeration by checking every short edge tuple, arrival
paths by brute-force walk enumeration or by per-length walk counting, the
finitary lattice by a sweep over all 2^|V| vertex subsets.  None of it
shares code with the package under test, except that the exitless-cycle
scan filters the package's all-cycles search, which shares nothing with the
condensation it is compared against.  Beside the sweep sit the set-based
lattice listing and its closure checks, which the bitmask listing replaced,
and that bitmask listing's own run-time closure checks, which the proof in
the hereditary module replaced; they share the package's atoms and its
annihilators.  The set-walk atom certificate, which the one pass over the
condensation replaced, shares the package's annihilators and finitariness.
The cycle search within a vertex set tries every vertex of the graph as a
root, as find_cycle_within did before it rooted only in the set; the exits
of a cycle scan every edge of the graph, and the lattice atoms scan every
vertex once per block, as the package did before it visited only the
cycle's out-edges and placed each vertex in one pass.

The algebra oracles at the end decide centrality and the center's relations
by full products and commutators in normal form, the search that the
library's local certificate replaces; they are quadratic in the size of the
generators, so they only run on small inputs.  The normal-form comparisons
that the certificate's complete prefix codes replace sit beside them, and
the certificate as it stood before the kind rule, which shares the tries
and is_central with the package but runs is_central on every generator.  The
degree-bounded kernel oracle keeps every candidate and every generator's
commutator rows, sharing only the candidate list and the RREF with the
package.  Beside them sit the constructions that only tests use: the normal
form under an explicit choice of special edges, the rotation sum of a
cycle, single-monomial elements and factor graphs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from ckcenter import (
    CenterCrossCheck,
    Cycle,
    Graph,
    SimplicityReport,
    SizeLimitError,
    arrival_paths,
    bounded_basis_monomials,
    commutator,
    condensation,
    cycles,
    exits,
    generators,
    make_monomial,
    multiply,
    ne_cycles,
    normal_form,
    star,
    unit,
    zero,
)
from ckcenter.algebra import AlgebraElement, Monomial, cycle_rotations, is_central
from ckcenter.center import _refines, _trie
from ckcenter.graphs import GraphError, Path, VertexSet, canonical_cycle, is_hereditary, set_sort_key
from ckcenter.hereditary import (
    DEFAULT_MAX_VERTICES,
    FinitaryLattice,
    _guard,
    annihilator,
    double_annihilator,
    is_finitary,
    lattice_atoms,
)
from ckcenter.linalg import in_span, nullspace, rank


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


def oracle_finitary_annihilator_lattice(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> FinitaryLattice:
    """The set-based listing: each element the double annihilator of a union
    of atoms, checked by is_finitary, then by oracle_verify_lattice."""
    _guard(g, max_vertices)
    atoms = [a for a, _ in lattice_atoms(g)]
    picks = product((False, True), repeat=len(atoms))
    joins = (set().union(*(a for a, keep in zip(atoms, pick) if keep)) for pick in picks)
    elements = sorted((double_annihilator(g, u) for u in joins), key=set_sort_key)
    for w in elements:
        if w and not is_finitary(g, w):
            raise RuntimeError(f"internal inconsistency: element {sorted(w)} is not finitary")
    oracle_verify_lattice(g, elements, atoms)
    return FinitaryLattice(tuple(elements), tuple(atoms))


def lattice_join(g: Graph, w1, w2) -> VertexSet:
    """Join in the annihilator lattice: the annihilator of the intersection
    of the two annihilators."""
    return annihilator(g, annihilator(g, w1) & annihilator(g, w2))


def oracle_verify_lattice(g: Graph, elements: list[VertexSet], atoms: list[VertexSet]) -> None:
    """The set-based closure checks: each element annihilator-closed and
    hereditary with its complement present, and meets and joins present over
    all pairs up to _PAIRWISE_VERIFY_CAP elements, against the atoms past it."""
    present = set(elements)
    exhaustive = len(elements) <= _PAIRWISE_VERIFY_CAP
    joined = elements if exhaustive else atoms
    keep = set(joined)
    ann = {}
    for w in elements:
        a = annihilator(g, w)
        if annihilator(g, a) != w:
            raise RuntimeError(f"internal inconsistency: {sorted(w)} is not annihilator-closed")
        if not is_hereditary(g, w):
            raise RuntimeError(f"internal inconsistency: {sorted(w)} is not hereditary")
        if a not in present:
            raise RuntimeError(f"internal inconsistency: complement of {sorted(w)} missing")
        if w in keep:
            ann[w] = a
    for w1, w2 in product(elements, joined):
        if w1 & w2 not in present:
            raise RuntimeError(
                f"internal inconsistency: meet of {sorted(w1)} and {sorted(w2)} missing"
            )
    for w1, w2 in product(joined, repeat=2):
        # lattice_join's formula; an atom met with the top is an element, so in ann
        if annihilator(g, ann[w1] & ann[w2]) not in present:
            raise RuntimeError(
                f"internal inconsistency: join of {sorted(w1)} and {sorted(w2)} missing"
            )


def oracle_verify_atoms(g: Graph, atoms) -> bool:
    """The set-walk atom certificate that the one-pass _verify_atoms
    replaced: nonempty, annihilator-closed, finitary, minimal, pairwise
    disjoint atoms whose union has an empty annihilator, and a cycle exactly
    on the atoms that are double annihilators of finitary exitless cycles,
    one atom per such cycle.  Minimality merges the one-bit below masks of
    each atom along the below masks of its cyclic vertices into one block.
    It trusts the condensation's below and cyclic."""
    finitary = [c for c in ne_cycles(g) if is_finitary(g, c.vertex_set(g))]
    cycle_of = {double_annihilator(g, c.vertex_set(g)): c for c in finitary}
    below, cyclic = condensation(g).below, condensation(g).cyclic
    union: VertexSet = frozenset()
    for atom, cycle in atoms:
        if not atom or atom & union or double_annihilator(g, atom) != atom:
            return False
        blocks = {m for m in map(below.get, atom) if not m & (m - 1)}
        for mask in {below[v] for v in atom if v in cyclic}:
            blocks = {b for b in blocks if not b & mask} | {sum(b for b in blocks if b & mask)}
        if not is_finitary(g, atom) or cycle_of.get(atom) != cycle or len(blocks) != 1:
            return False
        union |= atom
    return not annihilator(g, union) and sum(c is not None for _, c in atoms) == len(finitary)


_PAIRWISE_VERIFY_CAP = 512


def _byte_tables(values: list, empty=0) -> list[list]:
    """For each 8 vertices, the union (|) of their values over every byte."""
    tables = []
    for start in range(0, len(values), 8):
        chunk = values[start : start + 8]
        table = [empty] * (1 << len(chunk))
        for b in range(1, len(table)):
            table[b] = table[b & (b - 1)] | chunk[(b & -b).bit_length() - 1]
        tables.append(table)
    return tables


def _or_over(tables: list[list], w: int, out=0):
    for table in tables:
        out |= table[w & 0xFF]
        w >>= 8
    return out


class _Bits:
    """Vertex subsets of g as int bitmasks, bit i for g.vertices[i], as the
    lattice listing kept them before it listed sets off the below masks.
    The ancestor masks come from one pass over the condensation, parents
    first; reach(w) and the successors of w then cost one lookup per 8
    vertices."""

    def __init__(self, g: Graph):
        self.bit = {v: 1 << i for i, v in enumerate(g.vertices)}
        self.full = (1 << len(g.vertices)) - 1
        cond = condensation(g)
        anc: dict[str, int] = {}
        for comp in reversed(cond.components):
            m = self.mask(comp)
            for v in comp:
                for e in g.in_edges(v):
                    m |= anc.get(e.src, 0)
            anc.update(dict.fromkeys(comp, m))
        self.reach = _byte_tables([anc[v] for v in g.vertices])
        self.succ = _byte_tables([self.mask(e.dst for e in g.out_edges(v)) for v in g.vertices])
        self.names = _byte_tables([frozenset((v,)) for v in g.vertices], frozenset())
        self.cyclic = self.mask(cond.cyclic)

    def mask(self, w) -> int:
        out = 0
        for v in w:
            out |= self.bit[v]
        return out

    def members(self, w: int) -> VertexSet:
        return _or_over(self.names, w, frozenset())

    def ann(self, w: int) -> int:
        return self.full ^ _or_over(self.reach, w)


def _verify_lattice(bits: _Bits, elements: list[int], atoms: list[int]) -> None:
    """The runtime closure checks of the bitmask listing, which the proof in
    the hereditary module docstring replaced.

    Each element must be hereditary, annihilator-closed and finitary, with
    its complement, the annihilator, present.  Meet and join closure is
    checked over all pairs up to a size cap; past it (degenerate graphs
    whose lattice is the whole powerset) meets are checked against the
    atoms and joins over atom pairs, keeping the cost linear in the lattice.
    """
    present = set(elements)
    joined = elements if len(elements) <= _PAIRWISE_VERIFY_CAP else atoms
    ann = {w: bits.ann(w) for w in elements}
    for w, a in ann.items():
        fault = (
            "is not hereditary" if _or_over(bits.succ, w) & ~w
            else "is not annihilator-closed" if bits.ann(a) != w
            else "is not finitary" if (bits.full ^ a) & ~w & bits.cyclic
            else "has no complement" if a not in present
            else None
        )
        if fault:
            raise RuntimeError(f"internal inconsistency: {sorted(bits.members(w))} {fault}")
    for x, y in product(elements, joined):
        if x & y not in present:
            raise _missing(bits, "meet", x, y)
    for x, y in product(joined, repeat=2):
        # an atom met with the top is an element, so in ann
        if bits.ann(ann[x] & ann[y]) not in present:
            raise _missing(bits, "join", x, y)


def _missing(bits: _Bits, kind: str, x: int, y: int) -> RuntimeError:
    x, y = sorted(bits.members(x)), sorted(bits.members(y))
    return RuntimeError(f"internal inconsistency: {kind} of {x} and {y} missing")


def oracle_ne_cycles(g: Graph) -> list[Cycle]:
    """Every cycle from the all-cycles search that has no exit: no edge
    leaves a cycle vertex except the cycle's own."""
    out = []
    for c in cycles(g):
        on = {g.edge(eid).src for eid in c.edges}
        if all(e.id in c.edges for e in g.edges if e.src in on):
            out.append(c)
    return out


def oracle_exits(g: Graph, cycle: Cycle) -> frozenset[str]:
    """exits by a scan of every edge of g, as it was before it visited only
    the cycle's own out-edges."""
    on = {g.edge(eid).src for eid in cycle.edges}
    body = set(cycle.edges)
    return frozenset(e.id for e in g.edges if e.src in on and e.id not in body)


def oracle_lattice_atoms(g: Graph) -> tuple[tuple[VertexSet, Cycle | None], ...]:
    """lattice_atoms with each block's members found by a scan of every
    vertex's mask, as it was before one pass placed each vertex."""
    cond = condensation(g)
    blocks = [1 << i for i in range(len(cond.terminal))]
    above = 0
    for mask in cond.cycle_masks:
        above |= mask
        blocks = [b for b in blocks if not b & mask] + [sum(b for b in blocks if b & mask)]
    exitless = {cond.below[c.vertices(g)[0]]: c for c in ne_cycles(g)}
    atoms = []
    for b in blocks:
        members = frozenset(v for v, m in cond.below.items() if not m & ~b)
        atoms.append((members, None if b & above else exitless.get(b)))
    return tuple(sorted(atoms, key=lambda a: set_sort_key(a[0])))


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


def oracle_find_cycle_within(g: Graph, allowed) -> Cycle | None:
    """find_cycle_within with a DFS rooted at every vertex of g in turn,
    skipping those outside the allowed set."""
    allowed = frozenset(allowed)
    state: dict[str, str] = {}
    for root in g.vertices:
        if root not in allowed or root in state:
            continue
        state[root] = "active"
        trail = []
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


def oracle_literal_verify(g: Graph, atoms, idempotents, laurent) -> bool:
    """The center's certificate as it stood before the kind rule: the same
    shape checks and complete prefix codes, with is_central run on every
    idempotent and on both halves of every Laurent pair."""
    terms = [(m, c) for e in idempotents for m, c in e.terms.items()]
    if any(m.p != m.q or c != 1 for m, c in terms):
        return False
    complete = _refines(g, _trie(m.p for m, _ in terms), {v: {} for v in g.vertices})
    if not complete or not all(is_central(e)[0] for e in idempotents):
        return False
    for atom, e, pair in zip(atoms, idempotents, laurent):
        if pair is None:
            continue
        plus, minus = pair
        rotations = cycle_rotations(g, atom.cycle)
        arrivals = []
        for m, c in plus.terms.items():
            p = m.q
            loop = rotations.get(p.range(g))
            if c != 1 or loop is None or m.p != Path(p.source, p.edges + loop):
                return False
            arrivals.append(p)
        ptrie = _trie(arrivals)
        exitless = all(len(g.out_edges(v)) == 1 for v in rotations)
        if not ptrie or not exitless or minus.terms != star(plus).terms:
            return False
        refined = _refines(g, ptrie, _trie(m.p for m in e.terms))
        if not (refined and is_central(plus)[0] and is_central(minus)[0]):
            return False
    return True


def oracle_prefix_free(paths) -> bool:
    """No path begins another, nor equals it.  Sorted, a path that begins
    another path begins its successor."""
    keys = sorted((p.source, p.edges) for p in paths)
    return not any(s == t and f[: len(e)] == e for (s, e), (t, f) in zip(keys, keys[1:]))


def oracle_code_sum_equals(g: Graph, paths, target: AlgebraElement) -> bool:
    """Σ_{p∈paths} p·p* = target, compared in normal form: the test the
    center's certificate made before it read complete prefix codes."""
    return AlgebraElement(g, {Monomial(p, p): 1 for p in paths}) == target


def oracle_rotation_is_unit(g: Graph, v: str, rotation: tuple[str, ...]) -> bool:
    """c·c* = v for the closed path c at v, compared in normal form."""
    c = Path(v, rotation)
    return AlgebraElement(g, {Monomial(c, c): 1}) == AlgebraElement(g, {Monomial(Path(v), Path(v)): 1})


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


def oracle_center_degree_bounded(g: Graph, degree: int, oracle_bound: int = 150) -> list[AlgebraElement]:
    """The degree-bounded kernel from every candidate and every generator:
    one row per (generator, monomial) of each normal-form commutator, solved
    as one system by the package's RREF."""
    monos = bounded_basis_monomials(g, degree)
    if len(monos) > oracle_bound:
        raise SizeLimitError(
            f"{len(monos)} candidate monomials exceed the oracle bound {oracle_bound}"
        )
    gens = list(generators(g))
    rows: dict[tuple[str, Monomial], dict[int, Fraction]] = {}
    for j, m in enumerate(monos):
        el = AlgebraElement(g, {m: Fraction(1)})
        for label, gen in gens:
            for mono_out, coeff in commutator(el, gen).terms.items():
                rows.setdefault((label, mono_out), {})[j] = coeff
    return [
        AlgebraElement(g, {monos[j]: v for j, v in enumerate(vec) if v})
        for vec in nullspace(rows.values(), len(monos))
    ]


def oracle_cross_check(g: Graph, degree: int, predicted, kernel) -> CenterCrossCheck:
    """cross_check_center's fields for these (label, element) predictions,
    given the exact reduced echelon kernel from center_degree_bounded: span
    membership of each prediction's normal form, and their rational rank."""
    monos = bounded_basis_monomials(g, degree)
    index = {m: j for j, m in enumerate(monos)}
    kernel = [{index[m]: c for m, c in el.terms.items()} for el in kernel]
    vecs = [{index[m]: c for m, c in normal_form(el).terms.items()} for _, el in predicted]
    predicted_dim = rank(vecs)
    return CenterCrossCheck(
        degree=degree,
        candidate_count=len(monos),
        kernel_dim=len(kernel),
        predicted_dim=predicted_dim,
        predicted_in_kernel=all(in_span(kernel, vec) for vec in vecs),
        dims_match=predicted_dim == len(kernel),
        predicted_labels=tuple(label for label, _ in predicted),
    )


# ---------------------------------------------------------------------------
# constructions only the tests use

def special_edge_choice(g: Graph, chosen=None) -> dict[str, str]:
    """One outgoing edge per non-sink vertex, the smallest edge id unless an
    explicit choice is supplied; an explicit choice must name exactly one
    outgoing edge of every non-sink and nothing else."""
    if chosen is None:
        return {v: min(e.id for e in g.out_edges(v)) for v in g.vertices if g.out_edges(v)}
    table = {}
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            if v in chosen:
                raise GraphError(f"special edge given for sink {v!r}")
            continue
        if v not in chosen:
            raise GraphError(f"no special edge chosen for non-sink {v!r}")
        if chosen[v] not in {e.id for e in out}:
            raise GraphError(f"edge {chosen[v]!r} does not leave vertex {v!r}")
        table[v] = chosen[v]
    extra = set(chosen) - set(table)
    if extra:
        raise GraphError(f"special edge for unknown vertex {min(extra)!r}")
    return table


def oracle_normal_form(a: AlgebraElement, special) -> AlgebraElement:
    """The normal form for an explicit special edge per non-sink vertex:
    while a term (p1 e)(q1 e)* ends in the special edge e of its source on
    both sides, replace it by p1 q1* minus (p1 f)(q1 f)* for the other
    edges f at that source."""
    g = a.graph
    gamma = special_edge_choice(g, special)
    result: dict[Monomial, Fraction] = {}
    stack = list(a.terms.items())
    while stack:
        m, c = stack.pop()
        pe, qe = m.p.edges, m.q.edges
        if not (pe and qe and pe[-1] == qe[-1] and gamma.get(g.edge(pe[-1]).src) == pe[-1]):
            result[m] = result.get(m, 0) + c
            continue
        ps, qs = m.p.source, m.q.source
        stack.append((Monomial(Path(ps, pe[:-1]), Path(qs, qe[:-1])), c))
        for f in g.out_edges(g.edge(pe[-1]).src):
            if f.id != pe[-1]:
                stack.append((Monomial(Path(ps, pe[:-1] + (f.id,)), Path(qs, qe[:-1] + (f.id,))), -c))
    return AlgebraElement(g, result)


def from_monomial(g: Graph, p: Path, q: Path, coeff=1) -> AlgebraElement:
    return AlgebraElement(g, {make_monomial(g, p, q): Fraction(coeff)})


def cycle_rotation_sum(g: Graph, cycle: Cycle) -> AlgebraElement:
    """The sum of all rotations of an exitless cycle, each as a real path."""
    if exits(g, cycle):
        raise GraphError(f"cycle {cycle.edges} has an exit")
    ids = cycle.edges
    return AlgebraElement(g, {
        Monomial(Path(g.edge(eid).src, ids[i:] + ids[:i]), Path(g.edge(eid).src)): 1
        for i, eid in enumerate(ids)
    })


def factor_graph(g: Graph, w) -> Graph:
    """Drop a hereditary saturated set w and every edge whose range is in w."""
    w = frozenset(w)
    if not w <= g.vertex_set:
        raise GraphError(f"unknown vertex {min(w - g.vertex_set)!r}")
    if not oracle_is_hereditary(g, w):
        raise GraphError(f"set {sorted(w)} is not hereditary")
    if not oracle_is_saturated(g, w):
        raise GraphError(f"set {sorted(w)} is not saturated")
    if w == g.vertex_set:
        raise GraphError("cannot factor by the full vertex set")
    return Graph(
        (v for v in g.vertices if v not in w),
        (e for e in g.edges if e.dst not in w),
    )


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
