"""Arrival paths, finitary sets, annihilators and the idempotent lattice.

An arrival path of a hereditary set W is a path whose range is its first
vertex inside W: every edge source along the path stays outside W.  Each
vertex of W counts as a zero-length arrival path.  Whether the collection is
finite is decided structurally, without enumeration: it is infinite exactly
when a cycle lies in the region outside W from which W is reachable.

Annihilators W' = {v : no descendant of v lies in W} drive the lattice: the
double annihilators of arbitrary vertex subsets, filtered down to finitary
ones, form a finite Boolean algebra whose atoms parametrise the summands of
the algebra's center.  The atoms and their exitless cycles are read off the
condensation rather than found by search (lattice_atoms); the center needs
nothing more.  Only finitary_annihilator_lattice lists the 2^atoms elements,
each the double annihilator of a union of atoms.

The listing works on vertex bitmasks.  A hereditary W is finitary iff no
vertex of reach(W) - W lies on a cycle: such a vertex reaches W, so does its
whole cycle, and no vertex of that cycle is in W, or the hereditary W would
hold the vertex itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graphs import (
    Cycle,
    Graph,
    GraphError,
    Path,
    SizeLimitError,
    VertexSet,
    condensation,
    find_cycle_within,
    is_hereditary,
    ne_cycles,
    reaches,
    set_sort_key,
    vertex_subset,
)

DEFAULT_MAX_VERTICES = 16


@dataclass(frozen=True)
class ArrivalSet:
    """Either the full finite list of arrival paths or a witness cycle that
    lies outside W and reaches W, proving there are infinitely many."""

    paths: tuple[Path, ...] | None = None
    witness: Cycle | None = None

    @property
    def is_finite(self) -> bool:
        return self.paths is not None


def path_sort_key(p: Path) -> tuple[int, str, tuple[str, ...]]:
    return (len(p.edges), p.source, p.edges)


def arrival_region(g: Graph, w: VertexSet) -> VertexSet:
    """Vertices outside w from which w is reachable."""
    return reaches(g, w) - w


def _checked_hereditary(g: Graph, w) -> VertexSet:
    w = vertex_subset(g, w)
    if not w:
        raise GraphError("arrival paths need a nonempty set")
    if not is_hereditary(g, w):
        raise GraphError(f"set {sorted(w)} is not hereditary")
    return w


def arrival_paths(g: Graph, w) -> ArrivalSet:
    """All arrival paths of a nonempty hereditary set, or an Infinite witness.

    In the finite case the region outside w that reaches w is acyclic, so a
    plain DFS enumerates every path through it that ends with one step into
    w, on its own stack so that deep graphs cannot hit the recursion limit.
    Paths come back sorted by (length, source, edge ids).
    """
    w = _checked_hereditary(g, w)
    region = arrival_region(g, w)
    witness = find_cycle_within(g, region)
    if witness is not None:
        return ArrivalSet(witness=witness)

    paths = [Path(v) for v in w]
    for start in sorted(region):
        trail: list[str] = []
        work = [iter(g.out_edges(start))]
        while work:
            for e in work[-1]:
                if e.dst in w:
                    paths.append(Path(start, tuple(trail) + (e.id,)))
                elif e.dst in region:
                    trail.append(e.id)
                    work.append(iter(g.out_edges(e.dst)))
                    break
            else:
                work.pop()
                if trail:
                    trail.pop()
    paths.sort(key=path_sort_key)
    return ArrivalSet(paths=tuple(paths))


def is_finitary(g: Graph, w) -> bool:
    """True iff the arrival path collection of w is finite."""
    w = _checked_hereditary(g, w)
    return find_cycle_within(g, arrival_region(g, w)) is None


# ---------------------------------------------------------------------------
# annihilators

def annihilator(g: Graph, w) -> VertexSet:
    """Vertices with no descendant in w; always hereditary.  w itself can be
    any vertex subset, hereditary or not, and the empty set annihilates to
    the full vertex set."""
    w = vertex_subset(g, w)
    return g.vertex_set - reaches(g, w)


def double_annihilator(g: Graph, w) -> VertexSet:
    return annihilator(g, annihilator(g, w))


# ---------------------------------------------------------------------------
# the finitary lattice

def lattice_atoms(g: Graph) -> tuple[tuple[VertexSet, Cycle | None], ...]:
    """The atoms of the finitary lattice in (size, members) order, each with
    the exitless cycle of a T-atom, or None for a C-atom.

    (X')' = W_T, the vertices whose terminal components all lie in T, for T
    the terminal components that meet X.  W_T is finitary unless a cycle
    outside it reaches it, which forces every terminal component below that
    cycle into T.  So the components below each non-terminal cycle join one
    block, and the atoms are the blocks' W_T.  A T-atom is a block of one
    exitless cycle with no cycle above it, so finitary, and W_T is its
    double annihilator.
    """
    cond = condensation(g)
    blocks = [1 << i for i in range(len(cond.terminal))]
    above = 0
    for mask in cond.cycle_masks:
        above |= mask
        # blocks are disjoint, so the sum of those that meet mask is their union
        blocks = [b for b in blocks if not b & mask] + [sum(b for b in blocks if b & mask)]
    exitless = {cond.below[c.vertices(g)[0]]: c for c in ne_cycles(g)}
    block_of, members = {}, {b: [] for b in blocks}
    for b in blocks:
        rest = b
        while rest:
            block_of[rest & -rest] = b
            rest &= rest - 1
    for v, m in cond.below.items():
        if not m & ~(b := block_of[m & -m]):
            members[b].append(v)
    atoms = [(frozenset(vs), None if b & above else exitless.get(b)) for b, vs in members.items()]
    return tuple(sorted(atoms, key=lambda a: set_sort_key(a[0])))


@dataclass(frozen=True)
class FinitaryLattice:
    """Finitary double-annihilator subsets, ordered by (size, members).

    The empty set is the bottom and the full vertex set the top; atoms are
    the minimal nonempty elements, each with cycles[i] as in lattice_atoms.
    """

    elements: tuple[VertexSet, ...]
    atoms: tuple[VertexSet, ...]
    cycles: tuple[Cycle | None, ...] = ()


def _guard(g: Graph, max_vertices: int) -> None:
    n = len(g.vertices)
    if n > max_vertices:
        raise SizeLimitError(
            f"graph has {n} vertices, over the lattice guard of {max_vertices}: its element "
            f"list can reach 2^{n} sets; pass max_vertices >= {n} to allow it"
        )


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
    """Vertex subsets of g as int bitmasks, bit i for g.vertices[i].  The
    ancestor masks come from one pass over the condensation, parents first;
    reach(w) and the successors of w then cost one lookup per 8 vertices."""

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


def finitary_annihilator_lattice(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> FinitaryLattice:
    """List the finitary double annihilators, then verify the Boolean
    closure properties.  Each element is the join of the atoms below it:
    the double annihilator of their union, as the annihilator of a union is
    the intersection of the annihilators.  There are 2^(number of atoms)
    elements, each listed and checked on vertex bitmasks in a few table
    lookups; max_vertices bounds that by 2^|V|.
    """
    _guard(g, max_vertices)
    found = lattice_atoms(g)
    bits = _Bits(g)
    atoms = [bits.mask(a) for a, _ in found]
    unions = [0]
    for a in atoms:
        unions += [u | a for u in unions]
    elements = [bits.ann(bits.ann(u)) for u in unions]
    _verify_lattice(bits, elements, atoms)
    return FinitaryLattice(
        tuple(sorted(map(bits.members, elements), key=set_sort_key)),
        tuple(a for a, _ in found),
        tuple(c for _, c in found),
    )


_PAIRWISE_VERIFY_CAP = 512


def _verify_lattice(bits: _Bits, elements: list[int], atoms: list[int]) -> None:
    """Assert the closure properties the rest of the computation relies on.

    Each element must be hereditary, annihilator-closed and finitary (see
    the module docstring), with its complement, the annihilator, present.
    Meet and join closure is checked over all pairs up to a size cap; past
    it (degenerate graphs whose lattice is the whole powerset) meets are
    checked against the atoms and joins over atom pairs, keeping the cost
    linear in the lattice.
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


def _verify_atoms(g: Graph, atoms) -> bool:
    """Certify (atom, cycle) pairs for what the center uses: nonempty,
    annihilator-closed, finitary, minimal, pairwise disjoint atoms whose
    union has an empty annihilator, and a cycle exactly on the atoms that
    are double annihilators of finitary exitless cycles, one atom per such
    cycle.

    An annihilator-closed A is W_T, the vertices whose terminal components
    (the one-bit masks in A) all lie in T; a smaller nonempty element is W_X
    for some X ⊊ T, Y = T - X.  A is minimal iff the below masks of its
    cyclic vertices connect T.  If they do, one meets X and Y, so its cycle
    lies outside W_X and reaches it: W_X is not finitary.  If no mask
    crosses a split, W_X is finitary: a cycle outside W_X that reaches it
    would cross the split inside A, or lie outside the finitary A.
    """
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


def classify_atom(g: Graph, atom) -> Cycle | None:
    """The exitless cycle of a T-atom, or None for a C-atom or a set that is
    no atom; a lookup in lattice_atoms."""
    return dict(lattice_atoms(g)).get(vertex_subset(g, atom))
