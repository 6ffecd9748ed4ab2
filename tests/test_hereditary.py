import time
from itertools import combinations

import pytest

from ckcenter import (
    Graph,
    GraphError,
    SizeLimitError,
    annihilator,
    arrival_paths,
    classify_atom,
    double_annihilator,
    finitary_annihilator_lattice,
    hereditary_closure,
    is_finitary,
    is_hereditary,
    is_simple_graph,
    lattice_atoms,
    ne_cycles,
)
from oracles import _PAIRWISE_VERIFY_CAP, _Bits, _verify_lattice

from oracles import (
    all_subsets,
    brute_arrival_paths,
    lattice_join,
    oracle_annihilator,
    oracle_classify_atom,
    oracle_finitary_annihilator_lattice,
    oracle_hereditary_sets,
    oracle_is_finitary,
    oracle_is_hereditary,
    oracle_lattice,
    oracle_lattice_atoms,
    oracle_ne_cycles,
    oracle_simplicity,
    oracle_verify_lattice,
    reach_pairs,
)


# ---------------------------------------------------------------------------
# arrival paths

def test_arrivals_full_vertex_set_is_zero_length(g4):
    arr = arrival_paths(g4, set(g4.vertices))
    assert arr.is_finite
    assert {(p.source, p.edges) for p in arr.paths} == {(v, ()) for v in g4.vertices}


def test_arrivals_g4_sink(g4):
    arr = arrival_paths(g4, {"v5"})
    assert arr.is_finite
    assert {(p.source, p.edges) for p in arr.paths} == {("v5", ()), ("v1", ("f",))}


def test_arrivals_g4_cycle_part(g4):
    arr = arrival_paths(g4, {"v2", "v3", "v4"})
    assert arr.is_finite
    assert {(p.source, p.edges) for p in arr.paths} == {
        ("v2", ()),
        ("v3", ()),
        ("v4", ()),
        ("v1", ("a",)),
    }


def test_arrivals_infinite_with_loop_witness(g2):
    arr = arrival_paths(g2, {"v2"})
    assert not arr.is_finite
    assert arr.witness.edges == ("c",)
    assert "v2" not in arr.witness.vertex_set(g2)


def test_arrivals_rejects_bad_sets(g4):
    with pytest.raises(GraphError):
        arrival_paths(g4, set())
    with pytest.raises(GraphError):
        arrival_paths(g4, {"v1"})


def test_arrivals_sorted_and_distinct(g4):
    arr = arrival_paths(g4, {"v2", "v3", "v4"})
    keys = [(len(p.edges), p.source, p.edges) for p in arr.paths]
    assert keys == sorted(keys)
    assert len(set(arr.paths)) == len(arr.paths)


def test_arrival_paths_match_brute_force(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            if not w:
                continue
            arr = arrival_paths(g, w)
            if not arr.is_finite:
                continue
            expected = brute_arrival_paths(g, w, 2 * len(g.vertices))
            assert {(p.source, p.edges) for p in arr.paths} == expected


def test_finite_arrival_sources_distinct_and_no_continuations(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            if not w:
                continue
            arr = arrival_paths(g, w)
            if not arr.is_finite:
                continue
            listed = {(p.source, p.edges) for p in arr.paths}
            for p in arr.paths:
                before = [p.source] + [g.edge(e).dst for e in p.edges[:-1]]
                assert len(set(before)) == len(before)
                for cut in range(len(p.edges)):
                    prefix = (p.source, p.edges[:cut])
                    assert prefix not in listed


def test_infinite_witness_is_valid(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            if not w:
                continue
            arr = arrival_paths(g, w)
            if arr.is_finite:
                continue
            cyc_vs = arr.witness.vertex_set(g)
            assert not (cyc_vs & w)
            pairs = reach_pairs(g)
            assert any((v, t) in pairs for v in cyc_vs for t in w)


def test_is_finitary_matches_bounded_enumeration(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            if not w:
                continue
            assert is_finitary(g, w) == oracle_is_finitary(g, w)


# ---------------------------------------------------------------------------
# annihilators

def test_annihilator_empty_set_is_everything(g4):
    assert annihilator(g4, set()) == frozenset(g4.vertices)


def test_annihilator_g4(g4):
    assert annihilator(g4, {"v5"}) == {"v2", "v3", "v4"}


def test_annihilator_g3_chain(g3):
    assert annihilator(g3, {"v2", "v3", "v4"}) == frozenset()
    assert double_annihilator(g3, {"v2", "v3", "v4"}) == frozenset(g3.vertices)


def test_annihilator_matches_oracle(exhaustive_corpus):
    for g in exhaustive_corpus:
        for s in all_subsets(g.vertices):
            got = annihilator(g, s)
            assert got == oracle_annihilator(g, s)
            assert is_hereditary(g, got)


def test_annihilator_antitone(exhaustive_corpus):
    for g in exhaustive_corpus:
        subsets = list(all_subsets(g.vertices))
        anns = {s: annihilator(g, s) for s in subsets}
        for s in subsets:
            for t in subsets:
                if s <= t:
                    assert anns[s] >= anns[t]


def test_galois_laws_on_hereditary_sets(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            assert w <= double_annihilator(g, w)
            assert annihilator(g, double_annihilator(g, w)) == annihilator(g, w)


def test_galois_laws_fail_without_hereditarity(g3, chain2):
    # the laws above genuinely need hereditary input
    assert double_annihilator(chain2, {"v1"}) == frozenset()  # drops v1
    assert annihilator(g3, {"v3"}) == {"v4"}
    assert double_annihilator(g3, {"v3"}) == frozenset()
    assert annihilator(g3, double_annihilator(g3, {"v3"})) == frozenset(g3.vertices)


def test_double_annihilator_idempotent_on_image(exhaustive_corpus):
    for g in exhaustive_corpus:
        for s in all_subsets(g.vertices):
            w = double_annihilator(g, s)
            assert double_annihilator(g, w) == w


def test_double_annihilator_is_largest_reaching_hereditary(exhaustive_corpus):
    # (S join-reach characterization) every vertex of the double annihilator
    # reaches S, and no strictly larger hereditary set manages that
    for g in exhaustive_corpus:
        pairs = reach_pairs(g)
        hereditary = oracle_hereditary_sets(g)
        for s in all_subsets(g.vertices):
            d = double_annihilator(g, s)
            assert is_hereditary(g, d)
            assert all(any((v, t) in pairs for t in s) for v in d)
            for h in hereditary:
                if all(any((v, t) in pairs for t in s) for v in h):
                    assert h <= d


def test_double_annihilator_image_equals_annihilators_of_hereditary(exhaustive_corpus):
    for g in exhaustive_corpus:
        image = {double_annihilator(g, s) for s in all_subsets(g.vertices)}
        ann_image = {annihilator(g, w) for w in oracle_hereditary_sets(g)}
        assert image == ann_image


# ---------------------------------------------------------------------------
# the lattice

def test_lattice_g2(g2):
    lat = finitary_annihilator_lattice(g2)
    assert lat.elements == (frozenset(), frozenset(g2.vertices))
    assert lat.atoms == (frozenset(g2.vertices),)


def test_lattice_g3(g3):
    lat = finitary_annihilator_lattice(g3)
    assert lat.elements == (frozenset(), frozenset(g3.vertices))
    assert lat.atoms == (frozenset(g3.vertices),)


def test_lattice_g4(g4):
    lat = finitary_annihilator_lattice(g4)
    assert lat.elements == (
        frozenset(),
        frozenset({"v5"}),
        frozenset({"v2", "v3", "v4"}),
        frozenset(g4.vertices),
    )
    assert lat.atoms == (frozenset({"v5"}), frozenset({"v2", "v3", "v4"}))


def test_lattice_g2_hereditary_not_finitary(g2):
    # {v2} is hereditary yet the loop feeds it forever, so it stays out
    assert is_hereditary(g2, {"v2"})
    assert not is_finitary(g2, {"v2"})
    assert frozenset({"v2"}) not in finitary_annihilator_lattice(g2).elements


def test_lattice_boolean_laws(exhaustive_corpus):
    for g in exhaustive_corpus:
        lat = finitary_annihilator_lattice(g)
        elements = set(lat.elements)
        full = frozenset(g.vertices)
        assert frozenset() in elements
        assert full in elements
        for w in elements:
            comp = annihilator(g, w)
            assert comp in elements
            assert not (w & comp)
            assert lattice_join(g, w, comp) == full
        for w1 in elements:
            for w2 in elements:
                assert (w1 & w2) in elements
                assert lattice_join(g, w1, w2) in elements


def test_lattice_distributive(small_random_graphs):
    for g in small_random_graphs:
        lat = finitary_annihilator_lattice(g)
        els = list(lat.elements)
        if len(els) > 8:
            els = els[:8]
        for a in els:
            for b in els:
                for c in els:
                    join_bc = lattice_join(g, b, c)
                    lhs = a & join_bc
                    rhs = lattice_join(g, a & b, a & c)
                    assert lhs == rhs


def test_atoms_are_minimal_and_cover(exhaustive_corpus):
    for g in exhaustive_corpus:
        lat = finitary_annihilator_lattice(g)
        nonempty = [w for w in lat.elements if w]
        for a in lat.atoms:
            assert not any(w and w < a for w in lat.elements)
        for w in nonempty:
            below = [a for a in lat.atoms if a <= w]
            assert below
            joined = frozenset()
            for a in below:
                joined = lattice_join(g, joined, a) if joined else a
            assert joined == w


def test_lattice_guard(c3):
    g = Graph([f"u{i}" for i in range(17)], [])
    with pytest.raises(SizeLimitError):
        finitary_annihilator_lattice(g)
    with pytest.raises(SizeLimitError):
        finitary_annihilator_lattice(c3, max_vertices=2)
    lat = finitary_annihilator_lattice(c3, max_vertices=3)
    assert len(lat.atoms) == 1


def test_lattice_powerset_blowup_stays_fast():
    # An edgeless graph has the full powerset as its lattice.  Exhaustive
    # pairwise verification would be quadratic in 2^n; past the cap the
    # checks must stay linear so legal-but-degenerate inputs terminate.
    n = 12
    g = Graph([f"u{i}" for i in range(n)], [])
    start = time.perf_counter()
    lat = finitary_annihilator_lattice(g)
    elapsed = time.perf_counter() - start
    assert len(lat.elements) == 2**n
    assert set(lat.atoms) == {frozenset({v}) for v in g.vertices}
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# atom classification

def test_classify_g4_atoms(g4):
    lat = finitary_annihilator_lattice(g4)
    kinds = {tuple(sorted(a)): classify_atom(g4, a) for a in lat.atoms}
    assert kinds[("v5",)] is None
    cyc = kinds[("v2", "v3", "v4")]
    assert cyc is not None and cyc.edges == ("b", "c", "d")


def test_classify_c3_atom(c3):
    lat = finitary_annihilator_lattice(c3)
    (atom,) = lat.atoms
    cyc = classify_atom(c3, atom)
    assert cyc is not None and cyc.edges == ("e1", "e2", "e3")


def test_classification_matches_ne_cycles(exhaustive_corpus):
    for g in exhaustive_corpus:
        lat = finitary_annihilator_lattice(g)
        t_atoms = {}
        for a in lat.atoms:
            cyc = classify_atom(g, a)
            if cyc is not None:
                t_atoms[a] = cyc
                assert double_annihilator(g, cyc.vertex_set(g)) == a
                assert hereditary_closure(g, cyc.vertex_set(g)) == cyc.vertex_set(g)
        finitary_nes = [
            c for c in ne_cycles(g) if is_finitary(g, c.vertex_set(g))
        ]
        assert len(finitary_nes) == len(t_atoms)
        for c in finitary_nes:
            assert double_annihilator(g, c.vertex_set(g)) in t_atoms


# ---------------------------------------------------------------------------
# the condensation against the naive sweeps it replaced

@pytest.mark.parametrize("corpus", ["exhaustive_corpus", "random_graphs", "wide_random_graphs"])
def test_condensation_matches_naive_sweeps(corpus, request):
    for g in request.getfixturevalue(corpus):
        elements, atoms = oracle_lattice(g)
        lat = finitary_annihilator_lattice(g)
        assert list(lat.elements) == elements, g.edges
        assert list(lat.atoms) == atoms, g.edges
        for a in atoms:
            matches = oracle_classify_atom(g, a)
            assert len(matches) <= 1
            assert classify_atom(g, a) == (matches[0] if matches else None), g.edges
        assert ne_cycles(g) == oracle_ne_cycles(g), g.edges
        assert is_simple_graph(g) == oracle_simplicity(g), g.edges


@pytest.mark.parametrize("corpus", ["exhaustive_corpus", "random_graphs", "wide_random_graphs"])
def test_lattice_atoms_one_pass_matches_block_scan(corpus, request):
    for g in request.getfixturevalue(corpus):
        assert lattice_atoms(g) == oracle_lattice_atoms(g), g.edges


# ---------------------------------------------------------------------------
# the bitmask listing against the set-based one it replaced

def _fan(n: int) -> Graph:
    return Graph([f"u{i}" for i in range(n)], [(f"x{i}", "u0", f"u{i}") for i in range(1, n)])


def _past_the_cap() -> list[Graph]:
    """Lattices of more than _PAIRWISE_VERIFY_CAP elements: nine isolated
    vertices beside a loop at a above the sinks b and c, where {b} is
    hereditary and closed but not finitary, and ten isolated vertices."""
    isolated = [f"i{k}" for k in range(9)]
    gadget = Graph(isolated + ["a", "b", "c"], [("l", "a", "a"), ("f", "a", "b"), ("h", "a", "c")])
    return [gadget, Graph([f"u{k}" for k in range(10)], [])]


@pytest.mark.parametrize(
    "corpus", ["exhaustive_corpus", "random_graphs", "wide_random_graphs", "past_the_cap"]
)
def test_bitmask_lattice_matches_set_listing(corpus, request):
    if corpus == "past_the_cap":
        graphs = [_fan(16)] + _past_the_cap()
    else:
        graphs = request.getfixturevalue(corpus)
    for g in graphs:
        lat = finitary_annihilator_lattice(g)
        slow = oracle_finitary_annihilator_lattice(g)
        assert lat.elements == slow.elements, g.edges
        assert lat.atoms == slow.atoms, g.edges
        assert lat.cycles == tuple(c for _, c in lattice_atoms(g)), g.edges
    if corpus == "past_the_cap":
        assert len(lat.elements) > _PAIRWISE_VERIFY_CAP


def _outsiders(g: Graph, elements) -> dict[str, frozenset]:
    """The first vertex set outside the lattice of each kind a listing must
    refuse, by the oracles; small sets only on larger graphs."""
    pairs = reach_pairs(g)
    wanted = {}
    subsets = all_subsets(g.vertices) if len(g.vertices) <= 6 else (
        frozenset(s) for k in (1, 2) for s in combinations(g.vertices, k)
    )
    for s in subsets:
        s = frozenset(s)
        if s in elements:
            continue
        if not oracle_is_hereditary(g, s, pairs):
            kind = "not hereditary"
        elif oracle_annihilator(g, oracle_annihilator(g, s)) != s:
            kind = "not annihilator-closed"
        elif s and not oracle_is_finitary(g, s):
            kind = "not finitary"
        else:
            continue
        wanted.setdefault(kind, s)
    return wanted


def _mutants(g: Graph, elements: list, at: int):
    """(fault, listing) pairs: an element dropped or duplicated, or replaced
    by a set of each refused kind, put first so that it is checked first."""
    rest = elements[:at] + elements[at + 1 :]
    yield "dropped", rest
    yield "duplicate", elements + [elements[at]]
    for kind, s in _outsiders(g, set(elements)).items():
        yield kind, [s] + rest


def _refusal(check) -> str | None:
    try:
        check()
    except RuntimeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("corpus", ["exhaustive_corpus", "random_graphs", "past_the_cap"])
def test_lattice_mutants_refused_like_the_set_verifier(corpus, request):
    graphs = _past_the_cap() if corpus == "past_the_cap" else request.getfixturevalue(corpus)
    kinds = set()
    for n, g in enumerate(graphs):
        lat = finitary_annihilator_lattice(g)
        elements, atoms = list(lat.elements), list(lat.atoms)
        bits = _Bits(g)
        for fault, listing in _mutants(g, elements, n % len(elements)):
            old = _refusal(lambda: oracle_verify_lattice(g, listing, atoms))
            new = _refusal(
                lambda: _verify_lattice(bits, [bits.mask(w) for w in listing], [bits.mask(a) for a in atoms])
            )
            assert (old is None) == (new is None), (g.edges, fault, old, new)
            if fault == "duplicate":
                assert new is None
            elif fault == "dropped":
                # the dropped element's complement is still listed
                assert new.endswith("has no complement"), (g.edges, new)
            else:
                assert new.endswith(fault), (g.edges, fault, new)
            kinds.add(fault)
    assert kinds == {"dropped", "duplicate", "not hereditary", "not annihilator-closed", "not finitary"}
