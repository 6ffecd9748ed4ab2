"""Center of the Cuntz-Krieger algebra of a finite graph.

The center decomposes as a direct sum with one summand per atom of the
finitary annihilator lattice: a copy of the scalars when the atom carries
no exitless cycle, a Laurent polynomial summand (continuous functions on
the circle in the analytic completion) when it does.  compute_center reads
the atoms and their cycles off the condensation, certifies them, builds
explicit generating elements and certifies their relations exactly, in time
linear in their size.

cross_check_center confirms the structural answer against an independent
brute-force slice: the solution space of "commutes with every generator"
within a degree bound, built from integer edge rows with no structural
input.  Its dimensions are exact: integer membership checks and ranks over
F_p certify them, and ranks over the rationals stand in only when that
certificate does not close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    DEFAULT_ORACLE_BOUND,
    AlgebraElement,
    _bounded_candidates,
    _edge_rows,
    central_idempotent,
    conjugated_cycle_power,
    cycle_rotations,
    format_element,
    is_central,
    normal_form,
    star,
)
from .graphs import Cycle, Graph, Path
from .hereditary import (
    DEFAULT_MAX_VERTICES,
    _guard,
    _verify_atoms,
    finitary_annihilator_lattice,
    lattice_atoms,
)
from .linalg import rank, rank_mod_p


@dataclass(frozen=True)
class AtomSummary:
    """One atom of the finitary annihilator lattice with its classification."""

    vertices: tuple[str, ...]
    cycle: Cycle | None

    @property
    def kind(self) -> str:
        return "C" if self.cycle is None else "T"


@dataclass(frozen=True)
class CenterReport:
    """Isomorphism type of the center plus explicit verified generators.

    The type is C^a x T^b with a scalar summand per C-atom and a Laurent
    summand per T-atom; generator_labels[i] names generators[i].
    """

    graph: Graph
    atoms: tuple[AtomSummary, ...]
    c_count: int
    t_count: int
    generators: tuple[AlgebraElement, ...]
    generator_labels: tuple[str, ...]
    verified: bool

    def summand_description(self) -> str:
        return f"C^{self.c_count} x T^{self.t_count}"

    def to_json_dict(self) -> dict:
        return {
            "atoms": [
                {
                    "vertices": list(a.vertices),
                    "type": a.kind,
                    "cycle": list(a.cycle.edges) if a.cycle else None,
                }
                for a in self.atoms
            ],
            "c_count": self.c_count,
            "t_count": self.t_count,
            "generators": [format_element(e) for e in self.generators],
            "verified": self.verified,
        }


def _set_label(vertices) -> str:
    return "{" + ",".join(sorted(vertices)) + "}"


def _cycle_label(cycle: Cycle) -> str:
    return "·".join(cycle.edges)


def _labelled_trie(codes) -> tuple[dict, dict[int, object]]:
    """The trie of (label, path) pairs, nested dicts keyed by source then
    edge, and each leaf's label by the leaf's id; ({}, {}) if one path
    begins or repeats another, so ends at an inner node or a shared leaf."""
    root, owner, ends = {}, {}, []
    for label, p in codes:
        node = root.setdefault(p.source, {})
        for e in p.edges:
            node = node.setdefault(e, {})
        owner[id(node)] = label
        ends.append(node)
    return ({}, {}) if any(ends) or len(owner) < len(ends) else (root, owner)


def _trie(paths) -> dict:
    """The paths' trie, or {} if one path begins or repeats another."""
    return _labelled_trie((None, p) for p in paths)[0]


def _refines(g: Graph, ptrie: dict, qtrie: dict) -> bool:
    """Σ_{p∈P} p·p* = Σ_{q∈Q} q·q* for prefix codes with these tries, when
    the p below each q form a complete code: one child per edge at the range
    of each inner node, collapsed to q·q* by relation (3), v = Σ e·e*.  For
    Q the vertices the test is exact: a missing child y leaves y·y*,
    orthogonal to every p·p*."""
    if ptrie.keys() != qtrie.keys():
        return False
    stack = [(v, ptrie[v], qtrie[v]) for v in qtrie]
    while stack:
        at, pnode, qnode = stack.pop()
        if pnode or qnode:
            edges = g._targets[at]
            if pnode.keys() != (qnode or edges).keys():
                return False
            stack.extend((edges[k], pnode[k], qnode.get(k, {})) for k in pnode)
    return True


def _kind_rule(g: Graph, trie: dict, owner: dict) -> bool | None:
    """None unless the labelled trie is a complete code (_refines against
    the vertices); else the kind rule: each node at a vertex w has w's kind,
    its root's label or None if that root is inner, and each edge out of a
    leaf root enters a root with its label.  Then each node equals its
    vertex's root, as two complete tries at w whose nodes have their
    vertices' kinds are equal, by induction on their heights.  So for every
    edge e and label A, the A-leaves through e below s(e)'s root match those
    below r(e)'s (if s(e)'s root is a leaf, so is r(e)'s, with its label):
    is_central's literal corner test of Σ_{p labelled A} p·p*."""
    if trie.keys() != g._targets.keys():
        return None
    kind = {v: owner.get(id(node)) for v, node in trie.items()}
    uniform = all(kind[e.dst] == a for e in g.edges if (a := kind[e.src]) is not None)
    stack = [(v, node) for v, node in trie.items() if node]
    while stack:
        at, node = stack.pop()
        edges = g._targets[at]
        if node.keys() != edges.keys():
            return None
        for k, child in node.items():
            uniform = uniform and kind[edges[k]] == owner.get(id(child))
            if child:
                stack.append((edges[k], child))
    return uniform


def _verify(g: Graph, atoms, idempotents, laurent) -> bool:
    """Certify the relations from the generators' shape, in time linear in
    their size.  Each e(A) must be a sum of p p* with coefficient 1, the p
    over all atoms a prefix code (arrival paths of disjoint hereditary sets
    are), so e(A)^2 = e(A), e(A) e(B) = 0 and e(A)* = e(A) hold term by
    term, and complete, so the e(A) sum to 1.  Labelled by atom, that trie
    proves every e(A) central when it meets _kind_rule, as compute_center's
    always does: an inner node lies outside every atom, as it reaches A and
    atoms are disjoint and hereditary, and edges out of A stay in A.  Else
    (a leaf split into all its children keeps every sum) is_central decides.
    A T-atom's plus must be the sum of (p c_v) p* over a prefix code P, c_v
    the cycle's rotation at v = r(p), and minus its star; with one edge out
    of each cycle vertex, plus minus = minus plus = sum of p p* over P,
    which must refine e(A), and then e(A) z = z e(A) = z.  Only plus goes to
    is_central: [z*, x] = -[z, x*]* and the generators v, e, e* are closed
    under the star.  compute_center's Arr(C) always refines Arr(A): each p
    enters A first at one q in Arr(A), then stays in A, the double
    annihilator of C, whose vertices all reach C (a vertex that misses C
    has its closure in C's annihilator) and which, finitary, has no other
    cycle; so the suffixes below q form a complete code at r(q)."""
    if any(m.p != m.q or c != 1 for e in idempotents for m, c in e._terms.items()):
        return False
    uniform = _kind_rule(g, *_labelled_trie((i, m.p) for i, e in enumerate(idempotents) for m in e._terms))
    if uniform is None or not (uniform or all(is_central(e)[0] for e in idempotents)):
        return False
    for atom, e, pair in zip(atoms, idempotents, laurent):
        if pair is None:
            continue
        plus, minus = pair
        rotations = cycle_rotations(g, atom.cycle)
        arrivals = []
        for m, c in plus._terms.items():
            p = m.q
            loop = rotations.get(p.range(g))
            if c != 1 or loop is None or m.p != Path(p.source, p.edges + loop):
                return False
            arrivals.append(p)
        ptrie = _trie(arrivals)
        exitless = all(len(g.out_edges(v)) == 1 for v in rotations)
        if not ptrie or not exitless or minus._terms != star(plus)._terms:
            return False
        if not (_refines(g, ptrie, _trie(m.p for m in e._terms)) and is_central(plus)[0]):
            return False
    return True


def compute_center(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> CenterReport:
    """Compute the center's isomorphism type and explicit generators.

    Each lattice atom A contributes the central idempotent e(A); an atom
    carrying an exitless cycle also contributes the two conjugated rotation
    sums, inverse to each other over e(A), generating its Laurent summand.
    The atoms must pass _verify_atoms, or a RuntimeError stops the run; the
    report's verified flag records an exact check of all expected relations.
    """
    _guard(g, max_vertices)
    found = lattice_atoms(g)
    if not _verify_atoms(g, found):
        raise RuntimeError("internal inconsistency: the lattice atoms fail their certificate")
    atoms: list[AtomSummary] = []
    idempotents: list[AlgebraElement] = []
    laurent: list[tuple[AlgebraElement, AlgebraElement] | None] = []
    gens: list[AlgebraElement] = []
    labels: list[str] = []
    for atom, cycle in found:
        atoms.append(AtomSummary(tuple(sorted(atom)), cycle))
        e = central_idempotent(g, atom)
        idempotents.append(e)
        gens.append(e)
        labels.append(f"e({_set_label(atom)})")
        if cycle is None:
            laurent.append(None)
            continue
        plus = conjugated_cycle_power(g, cycle, 1)
        minus = star(plus)
        laurent.append((plus, minus))
        gens.append(plus)
        labels.append(f"z({_cycle_label(cycle)})^1")
        gens.append(minus)
        labels.append(f"z({_cycle_label(cycle)})^-1")
    verified = _verify(g, atoms, idempotents, laurent)
    c_count = sum(1 for a in atoms if a.kind == "C")
    t_count = len(atoms) - c_count
    return CenterReport(
        graph=g,
        atoms=tuple(atoms),
        c_count=c_count,
        t_count=t_count,
        generators=tuple(gens),
        generator_labels=tuple(labels),
        verified=verified,
    )


@dataclass(frozen=True)
class CenterCrossCheck:
    """Comparison of the structural center against the brute-force slice."""

    degree: int
    candidate_count: int
    kernel_dim: int
    predicted_dim: int
    predicted_in_kernel: bool
    dims_match: bool
    predicted_labels: tuple[str, ...] = field(default=())

    @property
    def agrees(self) -> bool:
        return self.predicted_in_kernel and self.dims_match

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "candidate_count": self.candidate_count,
            "kernel_dim": self.kernel_dim,
            "predicted_dim": self.predicted_dim,
            "predicted_in_kernel": self.predicted_in_kernel,
            "dims_match": self.dims_match,
            "agrees": self.agrees,
            "predicted_labels": list(self.predicted_labels),
        }


def predicted_central_elements(
    g: Graph, degree: int, max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[tuple[str, AlgebraElement]]:
    """The structural central elements whose normal form fits within the
    degree bound.

    Candidates are the idempotents of every nonempty lattice element (not
    just atoms: a sum of atom idempotents can fit the bound when its parts
    do not, and those sums are exactly the idempotents of joins) plus the
    conjugated cycle powers of every T-atom for each exponent that can fit.
    """
    lattice = finitary_annihilator_lattice(g, max_vertices=max_vertices)
    out: list[tuple[str, AlgebraElement]] = []
    for w in lattice.elements:
        if not w:
            continue
        out.append((f"e({_set_label(w)})", central_idempotent(g, w)))
    for cycle in lattice.cycles:
        if cycle is None:
            continue
        k = 1
        while k * len(cycle.edges) <= degree:
            for j in (k, -k):
                out.append((f"z({_cycle_label(cycle)})^{j}", conjugated_cycle_power(g, cycle, j)))
            k += 1
    # normal-form terms are basis monomials, so they are bounded ones when
    # both halves fit the degree
    return [
        (label, el)
        for label, el in out
        if all(max(len(m.p), len(m.q)) <= degree for m in normal_form(el).terms)
    ]


def _kernel_dims(cols, rows, pred_vecs) -> tuple[bool, int, int]:
    """(predicted_in_kernel, kernel_dim, predicted_dim), exactly, with no
    rational elimination when ranks over F_p certify them.

    Let A be the edge rows over the n diagonal columns cols and P the
    predicted vectors.  A vector lies in the kernel iff its support is
    diagonal and every row annihilates it, an exact check that indexes the
    rows by the predictions' columns, so each vector meets only the rows its
    columns enter.  Over integer matrices rank_p <= rank_Q, since a minor
    that is nonzero mod p is a nonzero integer.  So when every prediction
    lies in the kernel,
        rank_p(P) <= rank_Q(P) <= dim ker_Q(A) <= n - rank_p(A),
    the middle step as P spans a subspace of the kernel.  If the ends meet,
    all four are equal, and both dimensions are rank_p(P).  Otherwise (a
    prediction outside the kernel, unequal ranks or a non-int coefficient)
    both ranks are taken over Q.
    """
    wanted = {j for vec in pred_vecs for j in vec}
    images: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        for k, a in row.items():
            if cols[k] in wanted:
                images.setdefault(cols[k], {})[i] = a
    in_kernel = wanted <= set(cols)
    for vec in pred_vecs:
        dots: dict[int, int] = {}
        for j, c in vec.items():
            for i, a in images.get(j, {}).items():
                dots[i] = dots.get(i, 0) + a * c
        in_kernel = in_kernel and not any(dots.values())
    if in_kernel and all(type(c) is int for vec in pred_vecs for c in vec.values()):
        r_p = rank_mod_p(pred_vecs)
        if r_p == len(cols) - rank_mod_p(rows):
            return True, r_p, r_p
    return in_kernel, len(cols) - rank(rows), rank(pred_vecs)


def cross_check_center(
    g: Graph,
    degree: int,
    oracle_bound: int = DEFAULT_ORACLE_BOUND,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CenterCrossCheck:
    """Verify the structural center against the degree-bounded kernel.

    Agreement means: every predicted element lies in the kernel, and the
    kernel dimension equals the number of independent predicted elements.
    The predicted count is itself a rank, so linear dependence among
    predictions (which does not occur for distinct atoms) would be caught.
    The dimensions come from integer edge rows (_kernel_dims): ranks over
    F_p when they certify agreement, exact rational ranks otherwise.
    """
    monos = _bounded_candidates(g, degree, oracle_bound)
    index = {m: j for j, m in enumerate(monos)}
    predicted = predicted_central_elements(g, degree, max_vertices=max_vertices)
    try:
        pred_vecs = [{index[m]: c for m, c in normal_form(el)._terms.items()} for _, el in predicted]
    except KeyError:
        raise RuntimeError("internal inconsistency: predicted element escaped filter") from None
    in_kernel, kernel_dim, predicted_dim = _kernel_dims(*_edge_rows(g, monos), pred_vecs)
    return CenterCrossCheck(
        degree=degree,
        candidate_count=len(monos),
        kernel_dim=kernel_dim,
        predicted_dim=predicted_dim,
        predicted_in_kernel=in_kernel,
        dims_match=predicted_dim == kernel_dim,
        predicted_labels=tuple(label for label, _ in predicted),
    )
