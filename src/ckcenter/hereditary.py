"""Arrival paths, finitary sets, annihilators and the idempotent lattice.

An arrival path of a hereditary set W is a path whose range is its first
vertex inside W: every edge source along the path stays outside W.  Each
vertex of W counts as a zero-length arrival path.  Whether the collection is
finite is decided structurally, without enumeration: it is infinite exactly
when a cycle lies in the region outside W from which W is reachable.

Annihilators W' = {v : no descendant of v lies in W} drive the lattice: the
finitary double annihilators form a finite Boolean algebra whose atoms
parametrise the summands of the algebra's center.  It is read off the
condensation in one encoding, below(v): the terminal components (those no
edge leaves) that v reaches.  lattice_atoms finds the atoms, _verify_atoms
certifies them in one pass, and only finitary_annihilator_lattice lists the
2^atoms elements.

For a set T of terminal components let W_T = {v : below(v) ⊆ T}, a
hereditary set.  Every vertex reaches a terminal component, so the
annihilator of a hereditary H is W_~T, ~T the terminal components outside
T, for T those inside H.  So ann(W_T) = W_~T, W_T'' = W_T, and every
annihilator-closed set is some W_T.

The listing.  The certified atoms' blocks T_a partition the terminal
components; for a set S of atoms write W_S for W of their union.  Then
W_S = V - (union of R_a for a not in S), R_a the vertices whose below
meets T_a, and:
- ann(W_S) = W_~S, W_S ∩ W_U = W_{S∩U}, and the join
  (W_S ∪ W_U)'' = ann(W_~S ∩ W_~U) = W_{S∪U};
- W_S is finitary: a cycle outside it lies in an atom b not in S, so its
  below lies in T_b and misses T_S, which every vertex of W_S reaches;
- every finitary W_T is some W_S: if T split a block T_a, a cycle mask of
  the minimal atom a would meet both parts, and its cycle, outside W_T,
  would reach W_T.
So the 2^atoms sets W_S are the lattice, closed under complement, meet
and join.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    (X')' = W_T for T the terminal components that meet X.  W_T is finitary
    unless a cycle outside it reaches it, which forces every terminal
    component below that cycle into T.  So the components below each
    non-terminal cycle join one block, and the atoms are the blocks' W_T.  A
    T-atom is a block of one exitless cycle with no cycle above it, so
    finitary, and W_T is its double annihilator.
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


def finitary_annihilator_lattice(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> FinitaryLattice:
    """List the finitary double annihilators as the sets W_S of the module
    docstring, once _verify_atoms has certified the atoms: each atom left
    out of S takes R_a away.  There are 2^(number of atoms) elements, one
    set difference each; max_vertices bounds that by 2^|V|."""
    _guard(g, max_vertices)
    found = lattice_atoms(g)
    if not _verify_atoms(g, found):
        raise RuntimeError("internal inconsistency: the lattice atoms fail their certificate")
    below = condensation(g).below
    elements = [g.vertex_set]
    for atom, _ in found:
        block = 0
        for v in atom:
            block |= below[v]
        reached = frozenset(v for v, m in below.items() if m & block)
        elements += [w - reached for w in elements]
    elements.sort(key=set_sort_key)
    return FinitaryLattice(tuple(elements), tuple(a for a, _ in found), tuple(c for _, c in found))


def _verify_atoms(g: Graph, atoms) -> bool:
    """Certify (atom, cycle) pairs as the atoms of the finitary lattice, with
    the exitless cycle of each T-atom and None for a C-atom, in one O(V + E)
    pass over the condensation that trusts none of it.

    Tarjan's output: the components partition the vertices, each is strongly
    connected (a forward and a backward search inside it reach all of it),
    and every edge stays in its component or enters an earlier one.  So no
    cycle crosses two components: they are the strongly connected
    components, children first, and one pass in that order must give back
    terminal, below, cyclic and cycle_masks.

    The atoms, T_A the terminal components inside atom A (W_T as in the
    module docstring), are nonempty and pairwise disjoint, and:
    - Labels, children first: a terminal component takes its atom (it must
      lie in one), any other the common label of its out-neighbours, or
      MIXED if they differ.  So v is labelled A iff below(v) ⊆ T_A, and each
      vertex must carry its own atom's label, or MIXED outside every atom:
      A = W_{T_A} = A''.  The T_A partition the terminal components, so the
      union of the atoms has the annihilator W of none, which is empty.
    - Every cyclic vertex lies in an atom.  One in atom B ≠ A has below in
      T_B, so it cannot reach A, all of whose vertices reach T_A: every atom
      is finitary.  One in no atom reaches an atom, which is not finitary.
    - The cycle masks join each T_A into one union-find class.  The nonempty
      elements below A are the W_X, X ⊆ T_A.  As every cycle that reaches A
      lies in A, W_X for X ≠ T_A is not finitary iff some cycle mask meets X
      and T_A - X.  So A is minimal iff T_A is one class.
    - A carries a cycle iff T_A is one exitless cycle C and no other vertex
      of A is cyclic.  Every cyclic vertex that reaches C lies in A, so C is
      finitary iff none lies outside C; then C'' = W_{C} is a nonempty
      finitary element below A, so A by minimality, and conversely.
    """
    cond = condensation(g)
    comps, below = cond.components, cond.below
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    atoms = list(atoms)
    atom_of = {v: k for k, (atom, _) in enumerate(atoms) for v in atom}
    if (
        sum(map(len, comps)) != len(comp_of) or comp_of.keys() != g.vertex_set or len(below) != len(comp_of)
        or not all(comps) or not all(atom for atom, _ in atoms)
        or len(atom_of) != sum(len(atom) for atom, _ in atoms) or not atom_of.keys() <= comp_of.keys()
    ):
        return False
    mixed, labels, terminal, cycle_masks, cyclic = -1, [], [], set(), set()
    cyclic_in = [0] * len(atoms)
    steps = (lambda v: [e.dst for e in g.out_edges(v)], lambda v: [e.src for e in g.in_edges(v)])
    for i, comp in enumerate(comps):
        for step in steps:
            seen, todo = {comp[0]}, [comp[0]]
            while todo:
                for w in step(todo.pop()):
                    if w not in seen and comp_of[w] == i:
                        seen.add(w)
                        todo.append(w)
            if len(seen) != len(comp):
                return False
        mask, below_labels, loop = 0, set(), False
        for v in comp:
            for e in g.out_edges(v):
                j = comp_of[e.dst]
                if j > i:
                    return False
                if j < i:
                    mask |= below[e.dst]
                    below_labels.add(labels[j])
                loop = loop or e.dst == v
        exits, on_cycle = bool(below_labels), len(comp) > 1 or loop
        if exits:
            label = below_labels.pop() if len(below_labels) == 1 else mixed
        else:
            label, mask = atom_of.get(comp[0], mixed), 1 << len(terminal)
            terminal.append(comp)
        if label == mixed and (on_cycle or not exits):
            return False
        if on_cycle:
            cyclic_in[label] += len(comp)
            cyclic.update(comp)
            if exits:
                cycle_masks.add(mask)
        labels.append(label)
        if any(atom_of.get(v, mixed) != label or below.get(v) != mask for v in comp):
            return False
    if tuple(terminal) != cond.terminal or cycle_masks != cond.cycle_masks or cyclic != cond.cyclic:
        return False
    parent = list(range(len(terminal)))

    def root(t: int) -> int:
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    for mask in cycle_masks:
        top = root(mask.bit_length() - 1)
        while mask:
            low = mask & -mask
            mask ^= low
            parent[root(low.bit_length() - 1)] = top
    owned: list[list] = [[] for _ in atoms]
    for t, comp in enumerate(terminal):
        owned[atom_of[comp[0]]].append((root(t), comp))
    exitless = {c.vertices(g)[0]: c for c in ne_cycles(g)}
    for (_, cycle), own, cyclic_count in zip(atoms, owned, cyclic_in):
        if len({r for r, _ in own}) != 1:
            return False
        first = own[0][1]
        carries = len(own) == 1 and cyclic_count == len(first)
        if cycle != (exitless.get(min(first)) if carries else None):
            return False
    return True


def classify_atom(g: Graph, atom) -> Cycle | None:
    """The exitless cycle of a T-atom, or None for a C-atom or a set that is
    no atom; a lookup in lattice_atoms."""
    return dict(lattice_atoms(g)).get(vertex_subset(g, atom))
