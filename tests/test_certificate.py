"""The local centrality test and the shape certificate behind `verified`,
compared with the product-and-commutator oracles on small inputs, and the
certificate of the lattice atoms that the center is built on."""

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from ckcenter import (
    Graph,
    bounded_basis_monomials,
    central_idempotent,
    compute_center,
    conjugated_cycle_power,
    cycles,
    format_element,
    generators,
    is_central,
    lattice_atoms,
    normal_form,
    star,
    unit,
)
from ckcenter.algebra import AlgebraElement, Monomial
from ckcenter.center import _kind_rule, _labelled_trie, _refines, _trie, _verify
from ckcenter.hereditary import _verify_atoms, double_annihilator, path_sort_key
from ckcenter.cli import main
from ckcenter.graphs import Path

from conftest import cycle_graph
from oracles import (
    exhaustive_graphs,
    oracle_code_sum_equals,
    oracle_conjugated_cycle_power,
    oracle_is_central,
    oracle_literal_verify,
    oracle_prefix_free,
    oracle_rotation_is_unit,
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
# complete prefix codes in place of normal forms

def _children(g: Graph, p: Path) -> list[Path]:
    return [Path(p.source, p.edges + (f.id,)) for f in g.out_edges(p.range(g))]


def _code_mutants(g: Graph, paths: list[Path]):
    """A prefix code, then five changes of each path: drop it, repeat it,
    split it into all its children (which keeps the sum), into all but one,
    or add one child beside it."""
    yield paths
    for i, p in enumerate(paths):
        rest = paths[:i] + paths[i + 1 :]
        kids = _children(g, p)
        yield rest
        yield paths + [p]
        if kids:
            yield rest + kids
            yield rest + kids[1:]
            yield paths + kids[:1]


def _idempotents(report):
    return [e for e, label in zip(report.generators, report.generator_labels) if label.startswith("e(")]


def test_complete_codes_match_normal_forms(exhaustive_corpus, random_graphs):
    """Σ p·p* = 1 read off the trie agrees with prefix-freeness plus the
    normal-form comparison, on every center's arrival paths and their
    mutants; on T-atoms the arrivals of the cycle refine those of the atom;
    and c·c* = v holds for a rotation c at v exactly when every vertex of
    its cycle has one outgoing edge."""
    verdicts = Counter()
    for g in list(exhaustive_corpus) + list(random_graphs[:150]):
        report = compute_center(g)
        halves = [m.p for atom_e in _idempotents(report) for m in atom_e.terms]
        for case in _code_mutants(g, halves):
            ours = _refines(g, _trie(case), {v: {} for v in g.vertices})
            assert ours == (oracle_prefix_free(case) and oracle_code_sum_equals(g, case, unit(g))), (g.edges, case)
            verdicts[ours] += 1
        for atom, e in zip(report.atoms, _idempotents(report)):
            if atom.cycle is None:
                continue
            arrivals = [m.q for m in conjugated_cycle_power(g, atom.cycle, 1).terms]
            assert _refines(g, _trie(arrivals), _trie(m.p for m in e.terms)), g.edges
            assert oracle_code_sum_equals(g, arrivals, e)
        for cycle in cycles(g):
            exitless = all(len(g.out_edges(v)) == 1 for v in cycle.vertices(g))
            for i, v in enumerate(cycle.vertices(g)):
                rotation = cycle.edges[i:] + cycle.edges[:i]
                assert oracle_rotation_is_unit(g, v, rotation) == exitless, (g.edges, rotation)
    assert verdicts[True] > 2000 and verdicts[False] > 8000, verdicts


def _trie_mutants(g: Graph, report, rng: random.Random):
    """(kind, generator list) for the corruptions of the prefix codes that
    the certificate must refuse, and the leaf splits, which keep every sum:
    a leaf of an idempotent dropped, split into all its children but one or
    into all of them, a path repeated in a second idempotent, an arrival
    dropped from a unitary and from its inverse.  A leaf of a T-atom that
    ends on its cycle, split, leaves an e(A) that Arr(C) does not refine."""
    gens = list(report.generators)
    idem = [i for i, label in enumerate(report.generator_labels) if label.startswith("e(")]

    def at(i, terms, *more):
        return gens[:i] + [AlgebraElement(g, terms), *more] + gens[i + 1 + len(more) :]

    for i, atom in zip(idem, report.atoms):
        on_cycle = set(atom.cycle.vertices(g)) if atom.cycle else set()
        terms = gens[i].terms
        paths = sorted((m.p for m in terms), key=path_sort_key)
        p = rng.choice(paths)
        yield "leaf dropped", at(i, {m: c for m, c in terms.items() if m.p != p})
        for q in paths:
            kids = _children(g, q)
            base = {m: c for m, c in terms.items() if m.p != q}
            if len(kids) > 1:
                yield "leaf split but one child", at(i, {**base, **{Monomial(k, k): 1 for k in kids[1:]}})
            if kids:
                kind = "leaf split on the cycle" if q.range(g) in on_cycle else "leaf split"
                yield kind, at(i, {**base, **{Monomial(k, k): 1 for k in kids}})
        for j in idem:
            if j != i:
                yield "path repeated", at(j, {**gens[j].terms, Monomial(p, p): 1})
                break
    for i, label in enumerate(report.generator_labels):
        if label.endswith(")^1"):
            terms = gens[i].terms
            m = rng.choice(sorted(terms, key=lambda t: path_sort_key(t.q)))
            plus = AlgebraElement(g, {k: c for k, c in terms.items() if k != m})
            yield "arrival dropped", at(i, plus.terms, star(plus))


def test_trie_mutations_fail_verification_like_the_oracle():
    rng = random.Random(19)
    verdicts = Counter()
    for g in _mutation_graphs() + [cycle_graph(1), cycle_graph(2)]:
        report = compute_center(g)
        for kind, mutant in _trie_mutants(g, report, rng):
            m_idem, m_laurent = _split(report.atoms, mutant)
            ours = _verify(g, report.atoms, m_idem, m_laurent)
            oracle = oracle_verify(g, report.atoms, m_idem, m_laurent)
            if kind == "leaf split on the cycle":
                assert oracle and not ours, g.edges
            else:
                assert ours == oracle, (g.edges, kind)
            verdicts[kind, ours] += 1
    assert set(verdicts) == {
        ("leaf dropped", False),
        ("leaf split but one child", False),
        ("leaf split", True),
        ("leaf split on the cycle", False),
        ("path repeated", False),
        ("arrival dropped", False),
    }, verdicts


def test_t_atom_arrivals_must_refine_the_atom():
    """The loop e1 at v1 with e(A) written as e1·e1*: the sum equals v1 in
    normal form, so the oracle accepts it, but Arr(C) = {v1} does not refine
    {e1}, and the certificate refuses it.  compute_center's own e(A) is always
    refined (see _verify's docstring)."""
    g = cycle_graph(1)
    report = compute_center(g)
    e = AlgebraElement(g, {Monomial(Path("v1", ("e1",)), Path("v1", ("e1",))): 1})
    arrivals = [m.q for m in report.generators[1].terms]
    assert not _refines(g, _trie(arrivals), _trie(m.p for m in e.terms))
    assert oracle_verify(g, report.atoms, [e], [tuple(report.generators[1:])])
    assert not _verify(g, report.atoms, [e], [tuple(report.generators[1:])])


def test_certificate_needs_no_normal_form(monkeypatch):
    """Without cycles, is_central compares literally, so the whole
    certificate runs with normal_form disabled, in the algebra and in the
    center module.  These graphs have no T-atom; the refinement check on
    real T-atoms is pinned by test_complete_codes_match_normal_forms."""

    def refuse(a):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("ckcenter.algebra.normal_form", refuse)
    monkeypatch.setattr("ckcenter.center.normal_form", refuse)
    for g in (_diamond_ladder(6), _fan()):
        assert compute_center(g, max_vertices=64).verified


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


# ---------------------------------------------------------------------------
# the atom certificate

def _atom_mutants(g: Graph, atoms):
    """(kind, corrupted atom list) for each way _verify_atoms must catch."""
    atoms = list(atoms)
    for i, (atom, cycle) in enumerate(atoms):
        def at(new):
            return atoms[:i] + [new] + atoms[i + 1 :]

        for v in sorted(atom):
            yield "vertex dropped", at((atom - {v}, cycle))
        for v in sorted(g.vertex_set - atom):
            yield "outside vertex added", at((atom | {v}, cycle))
        yield "atom dropped", atoms[:i] + atoms[i + 1 :]
        for j, (other, other_cycle) in enumerate(atoms):
            if j != i:
                yield "two atoms share a vertex", at((atom | {min(other)}, cycle))
            if cycle is None and other_cycle is not None:
                yield "C-atom given another atom's cycle", at((atom, other_cycle))
        if cycle is not None:
            yield "T-atom's cycle cleared", at((atom, None))


def test_atom_certificate_rejects_mutants(exhaustive_corpus, random_graphs):
    seen = Counter()
    for g in list(exhaustive_corpus) + list(random_graphs[:100]):
        atoms = lattice_atoms(g)
        assert _verify_atoms(g, atoms), g.edges
        for kind, mutant in _atom_mutants(g, atoms):
            assert not _verify_atoms(g, mutant), (kind, g.edges)
            seen[kind] += 1
    assert len(seen) == 6 and min(seen.values()) > 0, seen


def _merged_pairs(g: Graph, atoms):
    """Each pair of atoms replaced by their join, a finitary element that
    with the other atoms covers the graph, carrying either's cycle or none."""
    atoms = list(atoms)
    for (i, (a, ca)), (j, (b, cb)) in combinations(enumerate(atoms), 2):
        rest = atoms[:i] + atoms[i + 1 : j] + atoms[j + 1 :]
        for cycle in dict.fromkeys((None, ca, cb)):
            yield rest + [(double_annihilator(g, a | b), cycle)]


def test_atom_certificate_rejects_merged_atoms(exhaustive_corpus, random_graphs):
    merged = 0
    for g in list(exhaustive_corpus) + list(random_graphs[:100]):
        for mutant in _merged_pairs(g, lattice_atoms(g)):
            assert not _verify_atoms(g, mutant), g.edges
            merged += 1
    assert merged >= 700, merged


def test_center_refuses_merged_atoms(monkeypatch):
    import ckcenter.center

    monkeypatch.setattr(ckcenter.center, "lattice_atoms", lambda g: ((g.vertex_set, None),))
    two_sinks = Graph(["a", "b"], [])
    fan = Graph(["u0", "u1", "u2"], [("x1", "u0", "u1"), ("x2", "u0", "u2")])
    for g in (two_sinks, fan):
        assert not _verify_atoms(g, [(g.vertex_set, None)])
        with pytest.raises(RuntimeError, match="certificate"):
            compute_center(g)


# ---------------------------------------------------------------------------
# the kind rule and the star lemma in place of is_central

def _moved_leaves(g: Graph, report):
    """Each leaf of an idempotent with more than one term, moved into the
    next atom's idempotent: every sum is kept, but e(A) loses a proper part."""
    gens = list(report.generators)
    idem = [i for i, label in enumerate(report.generator_labels) if label.startswith("e(")]
    for n, i in enumerate(idem):
        j = idem[(n + 1) % len(idem)]
        if i == j or len(gens[i].terms) < 2:
            continue
        for m in sorted(gens[i].terms, key=lambda t: path_sort_key(t.p)):
            moved = list(gens)
            moved[i] = AlgebraElement(g, {k: c for k, c in gens[i].terms.items() if k != m})
            moved[j] = AlgebraElement(g, {**gens[j].terms, m: 1})
            yield moved


def _labelled_idempotents(idempotents):
    return _labelled_trie((i, m.p) for i, e in enumerate(idempotents) for m in e.terms)


def test_verify_matches_literal_oracle_on_corpora(exhaustive_corpus, random_graphs):
    """The kind rule accepts every center's idempotents, as the literal
    certificate does, and refuses every leaf moved to another atom, where it
    fails and is_central refuses."""
    moved = 0
    for g in list(exhaustive_corpus) + list(random_graphs):
        report = compute_center(g)
        idempotents, laurent = _split(report.atoms, report.generators)
        assert _kind_rule(g, *_labelled_idempotents(idempotents)) is True, g.edges
        assert _verify(g, report.atoms, idempotents, laurent), g.edges
        assert oracle_literal_verify(g, report.atoms, idempotents, laurent), g.edges
        for gens in _moved_leaves(g, report):
            m_idem, m_laurent = _split(report.atoms, gens)
            assert _kind_rule(g, *_labelled_idempotents(m_idem)) is False, g.edges
            assert not _verify(g, report.atoms, m_idem, m_laurent), g.edges
            assert not oracle_literal_verify(g, report.atoms, m_idem, m_laurent), g.edges
            moved += 1
    assert moved > 1000, moved


def test_verify_matches_literal_oracle_on_mutants():
    """Every term mutant of every generator, every trie mutant and every
    moved leaf gets the literal certificate's verdict; the normal-form
    oracle refuses the moved leaves too."""
    rng = random.Random(22)
    verdicts = Counter()
    for g in _mutation_graphs() + [cycle_graph(1), cycle_graph(2)]:
        report = compute_center(g)
        flat = list(report.generators)
        cases = [
            (kind, flat[:i] + [mutant] + flat[i + 1 :])
            for i, el in enumerate(flat)
            for index in range(len(el.terms))
            for kind, mutant in _mutants(el, index)
        ]
        cases += list(_trie_mutants(g, report, rng))
        cases += [("leaf moved", gens) for gens in _moved_leaves(g, report)]
        for kind, gens in cases:
            m_idem, m_laurent = _split(report.atoms, gens)
            ours = _verify(g, report.atoms, m_idem, m_laurent)
            assert ours == oracle_literal_verify(g, report.atoms, m_idem, m_laurent), (g.edges, kind)
            if kind == "leaf moved":
                assert not oracle_verify(g, report.atoms, m_idem, m_laurent), g.edges
            verdicts[kind, ours] += 1
    assert verdicts["leaf split", True] and verdicts["leaf moved", False], verdicts
    assert not verdicts["leaf moved", True] and not verdicts["swap", True], verdicts


def test_compute_center_tests_no_idempotent(monkeypatch, exhaustive_corpus, random_graphs):
    """On compute_center's own output, is_central sees only the z of each
    T-atom: the kind rule covers the idempotents, the star lemma z^-1."""
    tested = []
    real = is_central
    monkeypatch.setattr("ckcenter.center.is_central", lambda a: tested.append(a) or real(a))
    for g in list(exhaustive_corpus) + list(random_graphs):
        tested.clear()
        report = compute_center(g)
        assert report.verified, g.edges
        plus = [el for el, label in zip(report.generators, report.generator_labels) if label.endswith(")^1")]
        assert len(tested) == len(plus) == report.t_count, g.edges
        assert all(a is b for a, b in zip(tested, plus)), g.edges


def _fed_cycles() -> Graph:
    """A loop, a 2-cycle and a sink, all fed by three stages of parallel
    edge pairs."""
    verts = ["s0", "s1", "s2", "s3", "c1", "d1", "d2", "t"]
    edges = [(f"{k}{i}", f"s{i}", f"s{i + 1}") for i in range(3) for k in "pq"]
    edges += [("fc", "s3", "c1"), ("fd", "s3", "d1"), ("ft", "s3", "t")]
    edges += [("lc", "c1", "c1"), ("d12", "d1", "d2"), ("d21", "d2", "d1")]
    return Graph(verts, edges)


def test_certificate_needs_no_normal_form_with_t_atoms(monkeypatch):
    """With the star lemma, not even a T-atom's z^-1 reaches normal_form."""

    def refuse(a):
        raise AssertionError("normal_form called")

    monkeypatch.setattr("ckcenter.algebra.normal_form", refuse)
    monkeypatch.setattr("ckcenter.center.normal_form", refuse)
    for g in (cycle_graph(1), cycle_graph(2), cycle_graph(3)):
        report = compute_center(g)
        assert report.verified and report.summand_description() == "C^0 x T^1"
    report = compute_center(_fed_cycles())
    assert report.verified and report.summand_description() == "C^1 x T^2"
    # 15 paths from the stages into each terminal, plus its own vertices
    assert [len(e.terms) for e in report.generators] == [16, 16, 16, 16, 17, 17, 17]


def _padded(g: Graph) -> Graph:
    """g beside an unrelated path and loop, whose vertices come first and
    whose edges interleave with g's."""
    pad = [("y1", "w1", "w2"), ("y2", "w2", "w3"), ("y3", "w3", "w3")]
    edges = [e for pair in zip(pad, g.edges) for e in pair]
    edges += pad[len(g.edges) :] + list(g.edges[len(pad) :])
    return Graph(["w1", "w2", "w3", *g.vertices], edges)


def test_is_central_at_support_ignores_padding(centers):
    """Edges away from the element's corners change neither the verdict nor
    the witness, on the center's generators and on random sums."""
    rng = random.Random(2022)
    checked = Counter()
    for report in centers[::3]:
        g = report.graph
        big = _padded(g)
        pool = bounded_basis_monomials(g, 2)
        sums = [rng.choice(report.generators) + AlgebraElement(g, {rng.choice(pool): rng.choice([-1, 1])})]
        for el in list(report.generators) + sums:
            padded = AlgebraElement(big, el.terms)
            verdict = is_central(padded)
            assert verdict == is_central(el) == oracle_is_central(padded), (g.edges, format_element(el))
            checked[verdict[0]] += 1
    assert checked[True] > 100 and checked[False] > 100, checked
