"""Center of the Cuntz-Krieger algebra of a finite graph.

The center decomposes as a direct sum with one summand per atom of the
finitary annihilator lattice: a copy of the scalars when the atom carries
no exitless cycle, a Laurent polynomial summand (continuous functions on
the circle in the analytic completion) when it does.  compute_center builds
the atoms, classifies each one, constructs explicit generating elements and
certifies the relations between them exactly, in time linear in their size.

cross_check_center confirms the structural answer against an independent
brute-force slice: the exact solution space of "commutes with every
generator" within a degree bound, computed by linear algebra over the
rationals with no structural input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    AlgebraElement,
    Monomial,
    bounded_basis_monomials,
    center_degree_bounded,
    central_idempotent,
    conjugated_cycle_power,
    cycle_rotations,
    format_element,
    is_central,
    normal_form,
    star,
    unit,
    vertex,
)
from .graphs import Cycle, Graph, Path
from .hereditary import (
    DEFAULT_MAX_VERTICES,
    FinitaryLattice,
    classify_atom,
    finitary_annihilator_lattice,
)
from .linalg import in_span, rank


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
    summand per T-atom; generator_labels[i] names generators[i].  lattice is
    the finitary lattice the atoms came from; it is not part of the JSON.
    """

    graph: Graph
    atoms: tuple[AtomSummary, ...]
    c_count: int
    t_count: int
    generators: tuple[AlgebraElement, ...]
    generator_labels: tuple[str, ...]
    verified: bool
    lattice: FinitaryLattice = field(compare=False, repr=False)

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


def _prefix_free(paths) -> bool:
    """No path begins another, nor equals it.  Sorted, a path that begins
    another path begins its successor."""
    keys = sorted((p.source, p.edges) for p in paths)
    return not any(s == t and f[: len(e)] == e for (s, e), (t, f) in zip(keys, keys[1:]))


def _verify(g: Graph, atoms, idempotents, laurent) -> bool:
    """Certify the relations from the generators' shape, in time linear in
    their size.  Each e(A) must be a sum of p p* with coefficient 1, the p
    over all atoms prefix-free (arrival paths of disjoint hereditary sets
    are), so e(A)^2 = e(A), e(A) e(B) = 0 and e(A)* = e(A) hold term by
    term.  A T-atom's plus must be the sum of (p c_v) p* over a prefix-free
    set P, c_v the cycle's rotation at v = r(p), and minus its star; as
    c_v c_v* = v = c_v* c_v, plus minus = minus plus = sum of p p* over P,
    which must equal e(A), and then e(A) z = z e(A) = z.
    """
    terms = [(m, c) for e in idempotents for m, c in e.terms.items()]
    if any(m.p != m.q or c != 1 for m, c in terms):
        return False
    halves = [m.p for m, _ in terms]
    if not _prefix_free(halves) or AlgebraElement(g, {Monomial(p, p): 1 for p in halves}) != unit(g):
        return False
    if not all(is_central(e)[0] for e in idempotents):
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
        if minus.terms != star(plus).terms or not _prefix_free(arrivals):
            return False
        for v, c in rotations.items():
            if AlgebraElement(g, {Monomial(Path(v, c), Path(v, c)): 1}) != vertex(g, v):
                return False
        arrival_sum = {Monomial(p, p): 1 for p in arrivals}
        if arrival_sum != e.terms and AlgebraElement(g, arrival_sum) != e:
            return False
        if not (is_central(plus)[0] and is_central(minus)[0]):
            return False
    return True


def compute_center(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> CenterReport:
    """Compute the center's isomorphism type and explicit generators.

    Each lattice atom A contributes the central idempotent e(A); an atom
    carrying an exitless cycle also contributes the two conjugated rotation
    sums, inverse to each other over e(A), generating its Laurent summand.
    The report's verified flag records an exact check of all expected
    relations.
    """
    lattice = finitary_annihilator_lattice(g, max_vertices=max_vertices)
    atoms: list[AtomSummary] = []
    idempotents: list[AlgebraElement] = []
    laurent: list[tuple[AlgebraElement, AlgebraElement] | None] = []
    gens: list[AlgebraElement] = []
    labels: list[str] = []
    for atom in lattice.atoms:
        cycle = classify_atom(g, atom)
        atoms.append(AtomSummary(tuple(sorted(atom)), cycle))
        e = central_idempotent(g, atom)
        idempotents.append(e)
        gens.append(e)
        labels.append(f"e({_set_label(atom)})")
        if cycle is None:
            laurent.append(None)
            continue
        plus = conjugated_cycle_power(g, cycle, 1)
        minus = conjugated_cycle_power(g, cycle, -1)
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
        lattice=lattice,
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


def _coordinates(monos_index, el: AlgebraElement):
    nf = normal_form(el)
    vec = {}
    for m, c in nf.terms.items():
        j = monos_index.get(m)
        if j is None:
            return None
        vec[j] = c
    return vec


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
    for atom in lattice.atoms:
        cycle = classify_atom(g, atom)
        if cycle is None:
            continue
        k = 1
        while k * len(cycle.edges) <= degree:
            out.append(
                (f"z({_cycle_label(cycle)})^{k}", conjugated_cycle_power(g, cycle, k))
            )
            out.append(
                (f"z({_cycle_label(cycle)})^-{k}", conjugated_cycle_power(g, cycle, -k))
            )
            k += 1
    monos = set(bounded_basis_monomials(g, degree))
    return [
        (label, el)
        for label, el in out
        if all(m in monos for m in normal_form(el).terms)
    ]


def cross_check_center(
    g: Graph,
    degree: int,
    oracle_bound: int = 150,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> CenterCrossCheck:
    """Verify the structural center against the degree-bounded kernel.

    Agreement means: every predicted element lies in the kernel, and the
    kernel dimension equals the number of independent predicted elements.
    The predicted count is itself a rank, so linear dependence among
    predictions (which does not occur for distinct atoms) would be caught.
    """
    monos = bounded_basis_monomials(g, degree)
    index = {m: j for j, m in enumerate(monos)}
    kernel = center_degree_bounded(g, degree, oracle_bound=oracle_bound)
    kernel_vecs = []
    for el in kernel:
        vec = _coordinates(index, el)
        if vec is None:
            raise RuntimeError("internal inconsistency: kernel element outside basis")
        kernel_vecs.append(vec)
    predicted = predicted_central_elements(g, degree, max_vertices=max_vertices)
    pred_vecs = []
    labels = []
    in_kernel = True
    for label, el in predicted:
        vec = _coordinates(index, el)
        if vec is None:
            raise RuntimeError("internal inconsistency: predicted element escaped filter")
        pred_vecs.append(vec)
        labels.append(label)
        if not in_span(kernel_vecs, vec):
            in_kernel = False
    predicted_dim = rank(pred_vecs)
    return CenterCrossCheck(
        degree=degree,
        candidate_count=len(monos),
        kernel_dim=len(kernel_vecs),
        predicted_dim=predicted_dim,
        predicted_in_kernel=in_kernel,
        dims_match=predicted_dim == len(kernel_vecs),
        predicted_labels=tuple(labels),
    )
