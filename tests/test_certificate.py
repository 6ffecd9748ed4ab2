"""The local centrality test and the shape certificate behind `verified`,
compared with the product-and-commutator oracles on small inputs."""

import random
import time

import pytest

from ckcenter import (
    Graph,
    bounded_basis_monomials,
    central_idempotent,
    compute_center,
    conjugated_cycle_power,
    format_element,
    generators,
    is_central,
    normal_form,
)
from ckcenter.algebra import AlgebraElement, Monomial
from ckcenter.center import _verify
from ckcenter.cli import main
from ckcenter.graphs import Path

from oracles import (
    exhaustive_graphs,
    oracle_conjugated_cycle_power,
    oracle_is_central,
    oracle_verify,
)


def _fan() -> Graph:
    """h -> a by x, h -> b by y; x is the special edge at h."""
    return Graph(["h", "a", "b"], [("x", "h", "a"), ("y", "h", "b")])


def _diamond_ladder(k: int) -> Graph:
    """A top vertex, k diamonds in series, two sinks below the last bottom."""
    verts, edges = ["b0"], []
    for i in range(1, k + 1):
        verts += [f"l{i}", f"r{i}", f"b{i}"]
        edges += [
            (f"tl{i}", f"b{i - 1}", f"l{i}"),
            (f"tr{i}", f"b{i - 1}", f"r{i}"),
            (f"lb{i}", f"l{i}", f"b{i}"),
            (f"rb{i}", f"r{i}", f"b{i}"),
        ]
    verts += ["s1", "s2"]
    edges += [("d1", f"b{k}", "s1"), ("d2", f"b{k}", "s2")]
    return Graph(verts, edges)


def _split(atoms, gens):
    """compute_center's generator list as _verify's idempotents and Laurent
    pairs."""
    gens = iter(gens)
    idempotents, laurent = [], []
    for atom in atoms:
        idempotents.append(next(gens))
        laurent.append((next(gens), next(gens)) if atom.cycle else None)
    return idempotents, laurent


def _mutants(el: AlgebraElement, index: int):
    """Drop term `index`, double its coefficient, or move its first half to
    another path with the same range."""
    g = el.graph
    terms = el.terms
    m = sorted(terms, key=lambda t: (t.p.source, t.p.edges, t.q.source, t.q.edges))[index]
    rest = {k: c for k, c in terms.items() if k != m}
    yield "drop", AlgebraElement(g, rest)
    yield "perturb", AlgebraElement(g, {**terms, m: 2 * terms[m]})
    for e in g.in_edges(m.p.range(g)):
        other = Path(e.src, (e.id,))
        if other != m.p:
            yield "swap", AlgebraElement(g, {**rest, Monomial(other, m.q): terms[m]})
            return


def _mutation_graphs():
    corpus = exhaustive_graphs(max_vertices=3, max_edges=3)
    return corpus[::4] + [_fan(), _diamond_ladder(1)]


# ---------------------------------------------------------------------------
# agreement with the oracles

@pytest.fixture(scope="module")
def centers(exhaustive_corpus):
    return [compute_center(g) for g in exhaustive_corpus]


def test_conjugated_cycle_power_matches_products(centers):
    checked = 0
    for report in centers:
        g = report.graph
        for atom in report.atoms:
            if atom.cycle is None:
                continue
            for k in range(-3, 4):
                built = conjugated_cycle_power(g, atom.cycle, k)
                assert built.terms == oracle_conjugated_cycle_power(g, atom.cycle, k).terms, (g, k)
                checked += 1
    assert checked > 500


def test_is_central_matches_oracle_on_generators(centers):
    """The center's generators as built and, where it differs, in normal
    form; on every third graph also the algebra's own generators."""
    for i, report in enumerate(centers):
        g = report.graph
        elements = []
        for el in report.generators:
            nf = normal_form(el)
            elements += [el] if nf.terms == el.terms else [el, nf]
        if i % 3 == 0:
            elements.extend(gen for _, gen in generators(g))
        for el in elements:
            assert is_central(el) == oracle_is_central(el), (g, format_element(el))


def test_is_central_matches_oracle_on_random_sums(centers):
    """A random sum of basis monomials, one of terms with s(p) = s(q) only,
    and a central generator plus such a sum."""
    rng = random.Random(20261019)
    for report in centers:
        g = report.graph
        pool = bounded_basis_monomials(g, 2)
        diagonal = [m for m in pool if m.p.source == m.q.source]
        sums = []
        for source in (pool, diagonal, diagonal):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = rng.choice(source)
                terms[m] = terms.get(m, 0) + rng.choice([-2, -1, 1, 2])
            sums.append(AlgebraElement(g, terms))
        sums[2] = rng.choice(report.generators) + sums[2]
        for el in sums:
            assert is_central(el) == oracle_is_central(el), (g, format_element(el))


# ---------------------------------------------------------------------------
# regressions

def test_colliding_corner_terms_are_summed():
    # NF(e({a})) = a + h - y·y*: its corner at h times y collects +1 and -1
    # on the same monomial y·b, which must cancel.
    g = _fan()
    e = normal_form(central_idempotent(g, {"a"}))
    assert format_element(e) == "1 a + 1 h - 1 y·y^*"
    assert is_central(e) == oracle_is_central(e) == (True, None)
    report = compute_center(g)
    assert report.verified
    # The certificate asks for the literal arrival-path sum; another form of
    # the same idempotent is refused, never accepted unchecked.
    assert oracle_verify(g, report.atoms, [e, report.generators[1]], [None, None])
    assert not _verify(g, report.atoms, [e, report.generators[1]], [None, None])


def test_check_central_fan_normal_form(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(
        '{"vertices":["h","a","b"],"edges":[{"id":"x","src":"h","dst":"a"},'
        '{"id":"y","src":"h","dst":"b"}]}',
        encoding="utf-8",
    )
    assert main(["check-central", str(path), "1 a + 1 h - 1 y·y^*"]) == 0
    assert capsys.readouterr().out == "central: yes\n"
    assert main(["check-central", str(path), "1 a + 1 h"]) == 0
    assert capsys.readouterr().out == "central: no (witness generator: y)\n"


# ---------------------------------------------------------------------------
# equal strength: every mutation is refused, with the oracle's label

def test_mutations_fail_verification_like_the_oracle():
    rng = random.Random(14)
    kinds = set()
    for g in _mutation_graphs():
        report = compute_center(g)
        assert _verify(g, report.atoms, *_split(report.atoms, report.generators))
        flat = list(report.generators)
        for i, el in enumerate(flat):
            for kind, mutant in _mutants(el, rng.randrange(len(el.terms))):
                m_idem, m_laurent = _split(report.atoms, flat[:i] + [mutant] + flat[i + 1 :])
                label = (g, report.generator_labels[i], kind, format_element(mutant))
                assert not oracle_verify(g, report.atoms, m_idem, m_laurent), label
                assert not _verify(g, report.atoms, m_idem, m_laurent), label
                assert is_central(mutant) == oracle_is_central(mutant), label
                kinds.add(kind)
    assert kinds == {"drop", "perturb", "swap"}


# ---------------------------------------------------------------------------
# scale

def test_center_of_diamond_ladder_is_linear_in_output():
    g = _diamond_ladder(10)
    assert len(g.vertices) == 33
    start = time.perf_counter()
    report = compute_center(g, max_vertices=64)
    elapsed = time.perf_counter() - start
    assert report.summand_description() == "C^2 x T^0"
    assert report.verified
    assert [len(e.terms) for e in report.generators] == [4094, 4094]
    assert elapsed < 3.0
