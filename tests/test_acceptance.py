"""End-to-end acceptance suite.

Each test covers one acceptance criterion, runs under a wall-clock budget,
and contributes one PASS/FAIL line to the terminal summary. Arithmetic is
exact rational throughout; no tolerances appear anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from ckcenter import (
    SizeLimitError,
    annihilator,
    arrival_paths,
    bounded_basis_monomials,
    classify_atom,
    commutator,
    compute_center,
    cross_check_center,
    double_annihilator,
    edge,
    edge_star,
    finitary_annihilator_lattice,
    generators,
    is_central,
    is_finitary,
    is_hereditary,
    multiply,
    ne_cycles,
    normal_form,
    sinks,
    star,
    unit,
    vertex,
    vertex_subset,
    zero,
)
from conftest import cycle_graph
from oracles import (
    all_subsets,
    cycle_rotation_sum,
    from_monomial,
    lattice_join,
    oracle_hereditary_sets,
    oracle_is_finitary,
)

REPORT: list[str] = []


@contextmanager
def criterion(num: int, label: str, budget: float):
    """Time a criterion body and record one summary line for it."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"criterion {num}/8 FAIL  {label} ({elapsed:.2f}s, budget {budget:g}s)"
        REPORT.append(line)
        print(line)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget else "FAIL"
    line = f"criterion {num}/8 {status}  {label} ({elapsed:.2f}s, budget {budget:g}s)"
    REPORT.append(line)
    print(line)
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded budget {budget:g}s"


def _random_element(g, pool, rng):
    el = zero(g)
    if not pool:
        return el
    for m in rng.sample(pool, min(rng.randint(1, 3), len(pool))):
        coeff = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
        el = el + from_monomial(g, m.p, m.q, coeff)
    return el


def test_cycle_graphs_have_circle_center():
    with criterion(1, "cycle graphs: C^0 x T^1 with invertible rotation sum", 1.0):
        for n in (1, 2, 3, 5):
            g = cycle_graph(n)
            report = compute_center(g)
            assert (report.c_count, report.t_count) == (0, 1)
            assert report.verified
            (cyc,) = ne_cycles(g)
            z = cycle_rotation_sum(g, cyc)
            gens = list(generators(g))
            assert len(gens) == 3 * n
            for _, gen in gens:
                assert commutator(z, gen) == zero(g)
            central, witness = is_central(z)
            assert central and witness is None
            assert multiply(z, star(z)) == unit(g)
            assert multiply(star(z), z) == unit(g)


def test_loop_with_tail_scalar_center(g2):
    with criterion(2, "loop with tail: cycle witness for non-finitary set, C^1 x T^0", 1.0):
        w = vertex_subset(g2, ["v2"])
        assert is_hereditary(g2, w)
        assert not is_finitary(g2, w)
        arr = arrival_paths(g2, w)
        assert not arr.is_finite and arr.paths is None
        assert arr.witness is not None and arr.witness.edges == ("c",)
        report = compute_center(g2)
        assert (report.c_count, report.t_count) == (1, 0)
        assert report.generators == (unit(g2),)
        assert report.verified


def test_chain_annihilator_collapse(g3):
    with criterion(3, "chain: annihilator of the tail collapses, C^1 x T^0", 1.0):
        w = vertex_subset(g3, ["v2", "v3", "v4"])
        assert annihilator(g3, w) == frozenset()
        assert double_annihilator(g3, w) == g3.vertex_set
        lat = finitary_annihilator_lattice(g3)
        assert set(lat.elements) == {frozenset(), g3.vertex_set}
        report = compute_center(g3)
        assert (report.c_count, report.t_count) == (1, 0)
        assert report.verified


def test_fed_exitless_cycle_two_atoms(g4):
    with criterion(4, "fed exitless cycle: four-element lattice, C^1 x T^1", 1.0):
        lat = finitary_annihilator_lattice(g4)
        sink_atom = frozenset({"v5"})
        loop_atom = frozenset({"v2", "v3", "v4"})
        assert set(lat.elements) == {frozenset(), sink_atom, loop_atom, g4.vertex_set}
        assert set(lat.atoms) == {sink_atom, loop_atom}
        assert classify_atom(g4, sink_atom) is None
        cyc = classify_atom(g4, loop_atom)
        assert cyc is not None and cyc.edges == ("b", "c", "d")
        report = compute_center(g4)
        assert (report.c_count, report.t_count) == (1, 1)
        kinds = {a.vertices: a.kind for a in report.atoms}
        assert kinds == {("v5",): "C", ("v2", "v3", "v4"): "T"}
        for gen in report.generators:
            central, _ = is_central(gen)
            assert central
        assert report.verified


def test_annihilator_laws_across_corpus(exhaustive_corpus, random_graphs):
    with criterion(5, "annihilator laws and Boolean lattice across the corpus", 60.0):
        for g in exhaustive_corpus + random_graphs:
            subsets = list(all_subsets(g.vertices))
            ann = {w: annihilator(g, w) for w in subsets}
            for w in subsets:
                assert is_hereditary(g, ann[w])
            for w1, w2 in product(subsets, repeat=2):
                if w1 <= w2:
                    assert ann[w2] <= ann[w1]
            for w in subsets:
                if not is_hereditary(g, w):
                    continue
                dd = ann[ann[w]]
                assert w <= dd
                assert ann[dd] == ann[w]
                assert ann[ann[dd]] == dd
            lat = finitary_annihilator_lattice(g)
            elems = set(lat.elements)
            full = g.vertex_set
            assert frozenset() in elems and full in elems
            for a in elems:
                comp = ann[a]
                assert comp in elems
                assert not (a & comp)
                assert lattice_join(g, a, comp) == full
            for a, b in product(elems, repeat=2):
                assert (a & b) in elems
                assert lattice_join(g, a, b) in elems
            for a, b, c in product(elems, repeat=3):
                assert a & lattice_join(g, b, c) == lattice_join(g, a & b, a & c)


def test_relations_and_ring_axioms_across_corpus(exhaustive_corpus, random_graphs):
    with criterion(6, "defining relations and ring axioms across the corpus", 60.0):
        rng = random.Random(415)
        for g in exhaustive_corpus + random_graphs:
            snk = sinks(g)
            for e in g.edges:
                el = edge(g, e.id)
                assert multiply(vertex(g, e.src), el) == el
                assert multiply(el, vertex(g, e.dst)) == el
                for f in g.edges:
                    want = vertex(g, f.dst) if e.id == f.id else zero(g)
                    assert multiply(edge_star(g, e.id), edge(g, f.id)) == want
            for v in g.vertices:
                if v in snk:
                    continue
                acc = zero(g)
                for e in g.out_edges(v):
                    acc = acc + multiply(edge(g, e.id), edge_star(g, e.id))
                assert acc == vertex(g, v)
            pool = bounded_basis_monomials(g, 2)
            a, b, c = (_random_element(g, pool, rng) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
            assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)
            na = normal_form(a)
            assert normal_form(na) == na
            assert star(star(a)) == a
            assert star(multiply(a, b)) == multiply(star(b), star(a))
            assert star(a + b) == star(a) + star(b)


def test_predicted_center_inside_bounded_kernel(exhaustive_corpus, random_graphs):
    with criterion(7, "predicted central elements lie in the degree-bounded kernel", 120.0):
        ran = 0
        for g in exhaustive_corpus + random_graphs:
            for degree in (1, 2):
                try:
                    check = cross_check_center(g, degree=degree, oracle_bound=150)
                except SizeLimitError:
                    continue
                assert check.predicted_in_kernel
                ran += 1
        assert ran >= 2000


def test_finitariness_matches_bounded_enumeration(exhaustive_corpus, random_graphs):
    with criterion(8, "structural finitariness agrees with bounded enumeration", 60.0):
        checked = 0
        for g in exhaustive_corpus + random_graphs:
            for w in oracle_hereditary_sets(g):
                if not w:
                    continue
                assert is_finitary(g, w) == oracle_is_finitary(g, w)
                checked += 1
        assert checked >= 5000
