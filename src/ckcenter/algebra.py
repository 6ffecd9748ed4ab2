"""Exact symbolic arithmetic in the path algebra of a directed graph.

Elements are rational linear combinations of monomials p·q* built from two
paths with a common range, q entering starred.  Products follow the algebra
relations: the ghost half q* composes against the real half of the next
factor, surviving only when one path begins with the other.  Vertices are
idempotents, distinct edges annihilate under e*f, and at every non-sink v
the real edges resolve the identity: v equals the sum of ee* over its
outgoing edges.

That last relation powers the normal form.  Fixing one special outgoing
edge per non-sink vertex (smallest edge id by default), any monomial whose
two halves both end in the special edge of a common source is rewritten:

    (p1 e)(q1 e)*  ->  p1 q1*  -  sum over f != e of (p1 f)(q1 f)*

The survivors, monomials not of that shape, form a linear basis, so normal
forms decide equality, commutators and centrality exactly.

All elements are immutable values over an immutable graph; every function
here is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from .graphs import (
    Cycle,
    Graph,
    GraphError,
    Path,
    SizeLimitError,
    exits,
    make_path,
    vertex_subset,
)
from .hereditary import arrival_paths
from .linalg import nullspace

Rational = Fraction
MIDDLE_DOT = "·"

DEFAULT_ORACLE_BOUND = 150


@dataclass(frozen=True)
class Monomial:
    """p paired with a starred q; valid when both paths share their range."""

    p: Path
    q: Path


def monomial_sort_key(m: Monomial):
    return (
        len(m.p.edges) + len(m.q.edges),
        m.p.edges,
        m.p.source,
        m.q.edges,
        m.q.source,
    )


def make_monomial(g: Graph, p: Path, q: Path) -> Monomial:
    if p.range(g) != q.range(g):
        raise GraphError(
            f"paths {p.edges or p.source} and {q.edges or q.source} have different ranges"
        )
    return Monomial(p, q)


@lru_cache(maxsize=None)
def _default_special(g: Graph) -> dict[str, str]:
    return {
        v: min(e.id for e in g.out_edges(v))
        for v in g.vertices
        if g.out_edges(v)
    }


def special_edge_choice(g: Graph, chosen: Mapping[str, str] | None = None) -> dict[str, str]:
    """One outgoing edge per non-sink vertex, the smallest edge id unless an
    explicit choice is supplied."""
    if chosen is None:
        return dict(_default_special(g))
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


class AlgebraElement:
    """Immutable rational combination of path monomials over one graph."""

    __slots__ = ("graph", "_terms", "_nf")

    def __init__(self, graph: Graph, terms: Mapping[Monomial, Rational]):
        self.graph = graph
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c:
                clean[m] = c
        self._terms = clean
        self._nf: AlgebraElement | None = None

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not normal_form(self)._terms

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        _same_graph(self, other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return AlgebraElement(self.graph, acc)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.graph, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.graph, {m: c * other for m, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.graph != other.graph:
            return False
        return normal_form(self)._terms == normal_form(other)._terms

    __hash__ = None  # type: ignore[assignment]

    def star(self) -> AlgebraElement:
        return star(self)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<AlgebraElement {self}>"


def _same_graph(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.graph != b.graph:
        raise GraphError("elements belong to different graphs")


# ---------------------------------------------------------------------------
# constructors

def zero(g: Graph) -> AlgebraElement:
    return AlgebraElement(g, {})


def vertex(g: Graph, v: str) -> AlgebraElement:
    vertex_subset(g, (v,))
    p = Path(v)
    return AlgebraElement(g, {Monomial(p, p): Fraction(1)})


def unit(g: Graph) -> AlgebraElement:
    """The identity: the sum of all vertex idempotents."""
    return AlgebraElement(g, {Monomial(Path(v), Path(v)): Fraction(1) for v in g.vertices})


def edge(g: Graph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    return AlgebraElement(g, {Monomial(Path(e.src, (e.id,)), Path(e.dst)): Fraction(1)})


def edge_star(g: Graph, edge_id: str) -> AlgebraElement:
    e = g.edge(edge_id)
    return AlgebraElement(g, {Monomial(Path(e.dst), Path(e.src, (e.id,))): Fraction(1)})


def from_monomial(g: Graph, p: Path, q: Path, coeff: Rational = 1) -> AlgebraElement:
    return AlgebraElement(g, {make_monomial(g, p, q): Fraction(coeff)})


# ---------------------------------------------------------------------------
# products and normal form

def _strip_prefix(prefix: Path, full: Path, g: Graph) -> Path | None:
    """The tail t with full = prefix.t, or None when prefix does not begin full."""
    if prefix.source != full.source:
        return None
    k = len(prefix.edges)
    if full.edges[:k] != prefix.edges:
        return None
    return Path(prefix.range(g), full.edges[k:])


def _mono_product(g: Graph, m1: Monomial, m2: Monomial) -> Monomial | None:
    """(p q*)(r s*): q* r survives only when one of q, r begins the other."""
    tail = _strip_prefix(m1.q, m2.p, g)
    if tail is not None:
        return Monomial(Path(m1.p.source, m1.p.edges + tail.edges), m2.q)
    tail = _strip_prefix(m2.p, m1.q, g)
    if tail is not None:
        return Monomial(m1.p, Path(m2.q.source, m2.q.edges + tail.edges))
    return None


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _same_graph(a, b)
    g = a.graph
    acc: dict[Monomial, Fraction] = {}
    for m1, c1 in a._terms.items():
        for m2, c2 in b._terms.items():
            m = _mono_product(g, m1, m2)
            if m is not None:
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return normal_form(AlgebraElement(g, acc))


def _is_junction_redex(g: Graph, gamma: Mapping[str, str], m: Monomial) -> bool:
    pe, qe = m.p.edges, m.q.edges
    if not pe or not qe or pe[-1] != qe[-1]:
        return False
    return gamma.get(g.edge(pe[-1]).src) == pe[-1]


def normal_form(a: AlgebraElement, special: Mapping[str, str] | None = None) -> AlgebraElement:
    """Rewrite to the canonical basis representation.

    Each rewrite either shortens the monomial or switches its last edge pair
    away from the special edge, so the loop terminates; the surviving
    monomials are basis monomials and the result is unique.
    """
    g = a.graph
    use_cache = special is None
    if use_cache and a._nf is not None:
        return a._nf
    gamma = special_edge_choice(g, special)
    result: dict[Monomial, Fraction] = {}
    stack = list(a._terms.items())
    while stack:
        m, c = stack.pop()
        if not _is_junction_redex(g, gamma, m):
            nc = result.get(m, Fraction(0)) + c
            if nc:
                result[m] = nc
            else:
                result.pop(m, None)
            continue
        eid = m.p.edges[-1]
        v = g.edge(eid).src
        p1 = Path(m.p.source, m.p.edges[:-1])
        q1 = Path(m.q.source, m.q.edges[:-1])
        stack.append((Monomial(p1, q1), c))
        for f in g.out_edges(v):
            if f.id == eid:
                continue
            stack.append(
                (
                    Monomial(
                        Path(p1.source, p1.edges + (f.id,)),
                        Path(q1.source, q1.edges + (f.id,)),
                    ),
                    -c,
                )
            )
    out = AlgebraElement(g, result)
    if use_cache:
        out._nf = out
        a._nf = out
    return out


def star(a: AlgebraElement) -> AlgebraElement:
    """The involution swapping each monomial's halves; rational coefficients
    are their own conjugates."""
    return AlgebraElement(a.graph, {Monomial(m.q, m.p): c for m, c in a._terms.items()})


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return normal_form(multiply(a, b) - multiply(b, a))


def generators(g: Graph) -> Iterator[tuple[str, AlgebraElement]]:
    """The algebra generators with printable labels: vertices, edges, ghost
    edges."""
    for v in g.vertices:
        yield v, vertex(g, v)
    for e in g.edges:
        yield e.id, edge(g, e.id)
    for e in g.edges:
        yield f"{e.id}^*", edge_star(g, e.id)


def is_central(a: AlgebraElement) -> tuple[bool, str | None]:
    """Check a against every generator; on failure, name the first generator
    (vertices, edges, then ghost edges) with a nonzero commutator.

    With z_u the terms p q* of a with s(p) = u: vertex v fails iff it is a
    source of a normal-form term with s(p) != s(q), and rewriting keeps
    sources; then edge e fails iff z_{s(e)} e != e z_{r(e)}, compared
    literally, then in normal form.  No ghost fails first, as z_u equal to
    the sum of e z_{r(e)} e* over s(e) = u gives e* z = z e*.
    """
    g = a.graph
    terms = a._terms
    if any(m.p.source != m.q.source for m in terms):
        terms = normal_form(a)._terms
        off = {v for m in terms if m.p.source != m.q.source for v in (m.p.source, m.q.source)}
        for v in g.vertices:
            if v in off:
                return False, v
    corner: dict[str, list[tuple[Path, Path, Fraction]]] = {}
    for m, c in terms.items():
        corner.setdefault(m.p.source, []).append((m.p, m.q, c))

    def element(keyed: dict[tuple, Fraction]) -> AlgebraElement:
        return AlgebraElement(g, {Monomial(Path(*k[:2]), Path(*k[2:])): c for k, c in keyed.items()})

    for e in g.edges:
        # z_{s(e)} e: a term p s(e)* becomes (p e) r(e)*, a term p (e t)* becomes p t*
        left: dict[tuple, Fraction] = {}
        for p, q, c in corner.get(e.src, ()):
            if q.edges[:1] == (e.id,):
                key = (p.source, p.edges, e.dst, q.edges[1:])
            elif not q.edges:
                key = (p.source, p.edges + (e.id,), e.dst, ())
            else:
                continue
            left[key] = left.get(key, 0) + c
        left = {key: c for key, c in left.items() if c}
        right = {(e.src, (e.id,) + p.edges, q.source, q.edges): c for p, q, c in corner.get(e.dst, ())}
        if left != right and element(left) != element(right):
            return False, e.id
    return True, None


# ---------------------------------------------------------------------------
# central building blocks

def central_idempotent(g: Graph, w) -> AlgebraElement:
    """Sum of p.p* over the arrival paths of a finitary nonempty hereditary
    set.  Kept as the literal sum; normalization happens on comparison."""
    arr = arrival_paths(g, w)
    if not arr.is_finite:
        raise GraphError(f"set {sorted(vertex_subset(g, w))} is not finitary")
    return AlgebraElement(g, {Monomial(p, p): Fraction(1) for p in arr.paths})


def cycle_rotations(g: Graph, cycle: Cycle) -> dict[str, tuple[str, ...]]:
    """Each vertex v of the cycle mapped to the rotation c_v that starts at v."""
    edges_ = cycle.edges
    return {g.edge(eid).src: edges_[i:] + edges_[:i] for i, eid in enumerate(edges_)}


def cycle_rotation_sum(g: Graph, cycle: Cycle) -> AlgebraElement:
    """The sum of all rotations of an exitless cycle, each as a real path."""
    if exits(g, cycle):
        raise GraphError(f"cycle {cycle.edges} has an exit")
    rotations = cycle_rotations(g, cycle)
    return AlgebraElement(g, {Monomial(Path(v, c), Path(v)): Fraction(1) for v, c in rotations.items()})


def conjugated_cycle_power(g: Graph, cycle: Cycle, k: int) -> AlgebraElement:
    """Sum over arrival paths p of the cycle's vertex set of p z^k p*, where
    z is the rotation sum; negative k uses the starred rotation sum and k=0
    the corner identity, which makes the result the central idempotent.

    For k != 0, p z^k p* is the one monomial (p c^k) p* or p (p c^|k|)*, c
    the rotation at r(p); it is a basis monomial, as p's last edge enters
    the cycle from outside and c's does not."""
    if exits(g, cycle):
        raise GraphError(f"cycle {cycle.edges} has an exit")
    arr = arrival_paths(g, cycle.vertex_set(g))
    if not arr.is_finite:
        raise GraphError(f"cycle {cycle.edges} is not finitary")
    rotations = cycle_rotations(g, cycle)
    acc: dict[Monomial, Fraction] = {}
    for p in arr.paths:
        loop = Path(p.source, p.edges + rotations[p.range(g)] * abs(k))
        m = Monomial(loop, p) if k >= 0 else Monomial(p, loop)
        acc[m] = acc.get(m, Fraction(0)) + 1
    out = AlgebraElement(g, acc)
    return normal_form(out) if k == 0 else out


# ---------------------------------------------------------------------------
# degree-bounded brute force

def _paths_up_to(g: Graph, length: int) -> list[Path]:
    out = [Path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(length):
        nxt = []
        for p in frontier:
            at = p.range(g)
            for e in g.out_edges(at):
                nxt.append(Path(p.source, p.edges + (e.id,)))
        out.extend(nxt)
        frontier = nxt
    return out


def bounded_basis_monomials(g: Graph, degree: int, special: Mapping[str, str] | None = None) -> list[Monomial]:
    """All basis monomials with both halves of length at most degree, in
    canonical order."""
    if degree < 0:
        raise GraphError("degree must be nonnegative")
    gamma = special_edge_choice(g, special)
    by_range: dict[str, list[Path]] = {v: [] for v in g.vertices}
    for p in _paths_up_to(g, degree):
        by_range[p.range(g)].append(p)
    monos = [
        Monomial(p, q)
        for paths in by_range.values()
        for p in paths
        for q in paths
        if not _is_junction_redex(g, gamma, Monomial(p, q))
    ]
    monos.sort(key=monomial_sort_key)
    return monos


def center_degree_bounded(
    g: Graph, degree: int, oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> list[AlgebraElement]:
    """Brute-force slice of the center: the exact solution space of
    "commutes with every generator" within the span of basis monomials of
    bounded degree.

    Products of bounded monomials with generators stay within one extra
    degree and normalization never lengthens a monomial, so the linear
    system below is exact; its kernel is precisely the set of central
    elements expressible within the degree bound.  The basis returned is
    the canonical reduced echelon one.
    """
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
            c = commutator(el, gen)
            for mono_out, coeff in c._terms.items():
                rows.setdefault((label, mono_out), {})[j] = coeff
    basis = nullspace(rows.values(), len(monos))
    return [
        AlgebraElement(g, {monos[j]: v for j, v in enumerate(vec) if v})
        for vec in basis
    ]


# ---------------------------------------------------------------------------
# the element text grammar

def format_monomial(m: Monomial) -> str:
    if not m.p.edges and not m.q.edges:
        return m.p.source
    left = "*".join(m.p.edges) if m.p.edges else m.p.source
    right = "*".join(e + "^*" for e in m.q.edges) if m.q.edges else m.q.source
    return left + MIDDLE_DOT + right


def format_element(a: AlgebraElement) -> str:
    """Render as terms joined by " + " / " - ", each a coefficient and a
    monomial; the zero element prints as "0"."""
    if not a._terms:
        return "0"
    parts: list[str] = []
    for m in sorted(a._terms, key=monomial_sort_key):
        c = a._terms[m]
        body = format_monomial(m)
        if not parts:
            parts.append(f"{c} {body}")
        elif c > 0:
            parts.append(f" + {c} {body}")
        else:
            parts.append(f" - {-c} {body}")
    return "".join(parts)


_TERM_SPLIT = re.compile(r" ([+\-−]) ")
_STARRED = re.compile(r"([^*^]+)\^\*")


def _parse_forward_path(g: Graph, text: str) -> Path:
    if text in g.vertex_set:
        return Path(text)
    ids = text.split("*")
    if not all(ids):
        raise GraphError(f"malformed path {text!r}")
    return make_path(g, ids)


def _parse_starred_path(g: Graph, text: str) -> Path:
    if text in g.vertex_set:
        return Path(text)
    tokens = _STARRED.findall(text)
    if not tokens or "*".join(t + "^*" for t in tokens) != text:
        raise GraphError(f"malformed starred path {text!r}")
    return make_path(g, tokens)


def parse_monomial(g: Graph, text: str) -> Monomial:
    if MIDDLE_DOT in text:
        left, _, right = text.partition(MIDDLE_DOT)
        if MIDDLE_DOT in right:
            raise GraphError(f"monomial {text!r} has more than one {MIDDLE_DOT!r}")
        p = _parse_forward_path(g, left)
        q = _parse_starred_path(g, right)
        return make_monomial(g, p, q)
    if text in g.vertex_set:
        p = Path(text)
        return Monomial(p, p)
    raise GraphError(f"monomial {text!r} is neither a vertex nor a p{MIDDLE_DOT}q* pair")


def parse_element(g: Graph, text: str) -> AlgebraElement:
    """Parse the same grammar format_element emits; accepts an ASCII hyphen
    or a unicode minus between terms."""
    s = text.strip()
    if not s:
        raise GraphError("empty element string")
    if s == "0":
        return zero(g)
    pieces = _TERM_SPLIT.split(s)
    terms: dict[Monomial, Fraction] = {}

    def add(chunk: str, sign: int) -> None:
        chunk = chunk.strip()
        fields = chunk.split(None, 1)
        if len(fields) != 2:
            raise GraphError(f"term {chunk!r} needs a coefficient and a monomial")
        coeff_text, mono_text = fields
        try:
            c = Fraction(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise GraphError(f"bad coefficient {coeff_text!r}") from None
        m = parse_monomial(g, mono_text.strip())
        terms[m] = terms.get(m, Fraction(0)) + sign * c

    add(pieces[0], 1)
    for sep, chunk in zip(pieces[1::2], pieces[2::2]):
        add(chunk, 1 if sep == "+" else -1)
    return AlgebraElement(g, terms)
