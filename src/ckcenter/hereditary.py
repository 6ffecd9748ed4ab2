"""Arrival paths, finitary sets, annihilators and the idempotent lattice.

An arrival path of a hereditary set W is a path whose range is its first
vertex inside W: every edge source along the path stays outside W.  Each
vertex of W counts as a zero-length arrival path.  Whether the collection is
finite is decided structurally, without enumeration: it is infinite exactly
when a cycle lies in the region outside W from which W is reachable.

Annihilators W' = {v : no descendant of v lies in W} drive the lattice: the
double annihilators of arbitrary vertex subsets, filtered down to finitary
ones, form a finite Boolean algebra whose atoms parametrise the summands of
the algebra's center.  Both are read off the condensation rather than found
by search: a double annihilator is the set of vertices all of whose terminal
strongly connected components lie in a chosen collection, and the atoms come
from grouping terminal components that lie below a common cycle.  The work
grows with the size of the lattice, not with 2^|V|.
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
    w.  Paths come back sorted by (length, source, edge ids).
    """
    w = _checked_hereditary(g, w)
    region = arrival_region(g, w)
    witness = find_cycle_within(g, region)
    if witness is not None:
        return ArrivalSet(witness=witness)

    paths = [Path(v) for v in w]

    def extend(start: str, at: str, acc: tuple[str, ...]) -> None:
        for e in g.out_edges(at):
            if e.dst in w:
                paths.append(Path(start, acc + (e.id,)))
            elif e.dst in region:
                extend(start, e.dst, acc + (e.id,))

    for start in sorted(region):
        extend(start, start, ())
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

@dataclass(frozen=True)
class FinitaryLattice:
    """Finitary double-annihilator subsets, ordered by (size, members).

    The empty set is the bottom and the full vertex set the top; atoms are
    the minimal nonempty elements.
    """

    elements: tuple[VertexSet, ...]
    atoms: tuple[VertexSet, ...]


def finitary_annihilator_lattice(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> FinitaryLattice:
    """Build the finitary double annihilators from the condensation, then
    verify the Boolean closure properties.

    (X')' = W_T for T the terminal components that meet X, so the double
    annihilators are the W_T.  W_T is finitary unless a cycle outside it
    reaches it, and such a cycle forces every terminal component below it
    into T.  Closing {C} under that rule for each terminal component C
    joins the components below each cycle into one block, so the blocks
    partition the terminal components, the atoms are their W_T, and the
    elements are the W_T of the unions of blocks.

    There are 2^(number of atoms) elements, each checked by is_finitary and
    the closure checks; max_vertices bounds that by 2^|V|.
    """
    n = len(g.vertices)
    if n > max_vertices:
        raise SizeLimitError(
            f"graph has {n} vertices, over the lattice guard of {max_vertices}: its element "
            f"list can reach 2^{n} sets; pass max_vertices >= {n} to allow it"
        )
    cond = condensation(g)
    blocks = [1 << i for i in range(len(cond.terminal))]
    for mask in cond.cycle_masks:
        merged = 0
        rest = []
        for b in blocks:
            if b & mask:
                merged |= b
            else:
                rest.append(b)
        blocks = rest + [merged]

    def region(t: int) -> VertexSet:
        return frozenset(v for v, m in cond.below.items() if not m & ~t)

    unions = [0]
    for b in blocks:
        unions += [u | b for u in unions]
    elements = sorted(map(region, unions), key=set_sort_key)
    atoms = sorted(map(region, blocks), key=set_sort_key)
    for w in elements:
        if w and not is_finitary(g, w):
            raise RuntimeError(f"internal inconsistency: element {sorted(w)} is not finitary")

    _verify_lattice(g, elements, atoms)

    # The n-ary join is the double annihilator of the union, because the
    # annihilator of a union is the intersection of the annihilators.
    for w in elements:
        if not w:
            continue
        below = frozenset().union(*(a for a in atoms if a <= w))
        if double_annihilator(g, below) != w:
            raise RuntimeError(
                f"internal inconsistency: element {sorted(w)} is not the join of its atoms"
            )
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
    for w in elements:
        if double_annihilator(g, w) != w:
            raise RuntimeError(f"internal inconsistency: {sorted(w)} is not annihilator-closed")
        if not is_hereditary(g, w):
            raise RuntimeError(f"internal inconsistency: {sorted(w)} is not hereditary")
        if annihilator(g, w) not in present:
            raise RuntimeError(f"internal inconsistency: complement of {sorted(w)} missing")
    exhaustive = len(elements) <= _PAIRWISE_VERIFY_CAP
    for w1, w2 in product(elements, elements if exhaustive else atoms):
        if w1 & w2 not in present:
            raise RuntimeError(
                f"internal inconsistency: meet of {sorted(w1)} and {sorted(w2)} missing"
            )
    for w1, w2 in product(elements, repeat=2) if exhaustive else product(atoms, repeat=2):
        if lattice_join(g, w1, w2) not in present:
            raise RuntimeError(
                f"internal inconsistency: join of {sorted(w1)} and {sorted(w2)} missing"
            )


def classify_atom(g: Graph, atom) -> Cycle | None:
    """The exitless cycle witnessing a T-atom, or None for a plain C-atom.

    An atom is a T-atom when some finitary exitless cycle has the atom as
    the double annihilator of its vertex set.  Exitless cycles are terminal
    components of the condensation, so only those are tried.  Two distinct
    such cycles for one atom would contradict the structure theory, so that
    case is refused rather than guessed at.
    """
    atom = vertex_subset(g, atom)
    matches = []
    for c in ne_cycles(g):
        vs = c.vertex_set(g)
        if not is_finitary(g, vs):
            continue
        if double_annihilator(g, vs) == atom:
            matches.append(c)
    if len(matches) > 1:
        raise RuntimeError(
            f"internal inconsistency: distinct exitless cycles {matches[0].edges} and "
            f"{matches[1].edges} match the same atom"
        )
    return matches[0] if matches else None
