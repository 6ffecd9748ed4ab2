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


def lattice_join(g: Graph, w1, w2) -> VertexSet:
    """Join in the annihilator lattice: the annihilator of the intersection
    of the two annihilators."""
    return annihilator(g, annihilator(g, w1) & annihilator(g, w2))


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
    atoms = []
    for b in blocks:
        members = frozenset(v for v, m in cond.below.items() if not m & ~b)
        atoms.append((members, None if b & above else exitless.get(b)))
    return tuple(sorted(atoms, key=lambda a: set_sort_key(a[0])))


@dataclass(frozen=True)
class FinitaryLattice:
    """Finitary double-annihilator subsets, ordered by (size, members).

    The empty set is the bottom and the full vertex set the top; atoms are
    the minimal nonempty elements.
    """

    elements: tuple[VertexSet, ...]
    atoms: tuple[VertexSet, ...]


def _guard(g: Graph, max_vertices: int) -> None:
    n = len(g.vertices)
    if n > max_vertices:
        raise SizeLimitError(
            f"graph has {n} vertices, over the lattice guard of {max_vertices}: its element "
            f"list can reach 2^{n} sets; pass max_vertices >= {n} to allow it"
        )


def finitary_annihilator_lattice(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> FinitaryLattice:
    """List the finitary double annihilators, then verify the Boolean
    closure properties.  Each element is the join of the atoms below it:
    the double annihilator of their union, as the annihilator of a union is
    the intersection of the annihilators.  There are 2^(number of atoms)
    elements, each checked by is_finitary and the closure checks;
    max_vertices bounds that by 2^|V|.
    """
    _guard(g, max_vertices)
    atoms = [a for a, _ in lattice_atoms(g)]
    picks = product((False, True), repeat=len(atoms))
    joins = (set().union(*(a for a, keep in zip(atoms, pick) if keep)) for pick in picks)
    elements = sorted((double_annihilator(g, u) for u in joins), key=set_sort_key)
    for w in elements:
        if w and not is_finitary(g, w):
            raise RuntimeError(f"internal inconsistency: element {sorted(w)} is not finitary")
    _verify_lattice(g, elements, atoms)
    return FinitaryLattice(tuple(elements), tuple(atoms))


_PAIRWISE_VERIFY_CAP = 512


def _verify_lattice(g: Graph, elements: list[VertexSet], atoms: list[VertexSet]) -> None:
    """Assert the closure properties the rest of the computation relies on.

    Per-element facts are always checked.  Meet and join closure is checked
    over all pairs up to a size cap; past it (degenerate graphs whose lattice
    is the whole powerset) meets are checked against the atoms and joins over
    atom pairs, keeping the cost linear in the lattice.
    """
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


def _verify_atoms(g: Graph, atoms) -> bool:
    """Certify (atom, cycle) pairs for what the center uses: nonempty,
    annihilator-closed, finitary, pairwise disjoint atoms whose union has an
    empty annihilator, and a cycle exactly on the atoms that are double
    annihilators of finitary exitless cycles, one atom per such cycle."""
    finitary = [c for c in ne_cycles(g) if is_finitary(g, c.vertex_set(g))]
    cycle_of = {double_annihilator(g, c.vertex_set(g)): c for c in finitary}
    union: VertexSet = frozenset()
    for atom, cycle in atoms:
        if not atom or atom & union or double_annihilator(g, atom) != atom:
            return False
        if not is_finitary(g, atom) or cycle_of.get(atom) != cycle:
            return False
        union |= atom
    return not annihilator(g, union) and sum(c is not None for _, c in atoms) == len(finitary)


def classify_atom(g: Graph, atom) -> Cycle | None:
    """The exitless cycle of a T-atom, or None for a C-atom or a set that is
    no atom; a lookup in lattice_atoms."""
    return dict(lattice_atoms(g)).get(vertex_subset(g, atom))
