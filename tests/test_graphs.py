import json
import random
import sys

import pytest

from ckcenter import (
    Graph,
    GraphError,
    Path,
    arrival_paths,
    canonical_cycle,
    condensation,
    cycles,
    descendants,
    exits,
    graph_to_json_dict,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    is_simple_graph,
    make_path,
    ne_cycles,
    parse_graph,
    saturation,
    sinks,
)
from ckcenter.graphs import find_cycle_within
from ckcenter.hereditary import arrival_region, lattice_atoms

from conftest import cycle_graph
from oracles import (
    all_subsets,
    factor_graph,
    oracle_cycles,
    oracle_descendants,
    oracle_exits,
    oracle_find_cycle_within,
    oracle_hereditary_sets,
    oracle_is_saturated,
    oracle_saturation,
    reach_pairs,
)


# ---------------------------------------------------------------------------
# construction and parsing

def test_parse_smallest_graph():
    g = parse_graph('{"vertices":["v1"],"edges":[]}')
    assert g.vertices == ("v1",)
    assert g.edges == ()


def test_parse_one_loop():
    g = parse_graph('{"vertices":["v1"],"edges":[{"id":"c","src":"v1","dst":"v1"}]}')
    assert len(g.edges) == 1
    assert g.edge("c").src == "v1"
    assert g.edge("c").dst == "v1"


def test_parse_dangling_endpoint_names_token():
    text = '{"vertices":["v1"],"edges":[{"id":"c","src":"v1","dst":"v2"}]}'
    with pytest.raises(GraphError, match="v2"):
        parse_graph(text)


def test_parse_duplicate_vertex_names_token():
    with pytest.raises(GraphError, match="v1"):
        parse_graph('{"vertices":["v1","v1"],"edges":[]}')


def test_parse_duplicate_edge_id():
    text = (
        '{"vertices":["v1"],"edges":['
        '{"id":"c","src":"v1","dst":"v1"},{"id":"c","src":"v1","dst":"v1"}]}'
    )
    with pytest.raises(GraphError, match="c"):
        parse_graph(text)


def test_parse_empty_vertex_list():
    with pytest.raises(GraphError):
        parse_graph('{"vertices":[],"edges":[]}')


def test_parse_rejects_unknown_keys():
    with pytest.raises(GraphError):
        parse_graph('{"vertices":["v1"],"edges":[],"extra":1}')
    with pytest.raises(GraphError):
        parse_graph('{"vertices":["v1"],"edges":[{"id":"c","src":"v1","dst":"v1","w":2}]}')


def test_parse_rejects_invalid_json():
    with pytest.raises(GraphError):
        parse_graph("not json")


def test_vertex_edge_id_collision_rejected():
    with pytest.raises(GraphError, match="v1"):
        Graph(["v1"], [("v1", "v1", "v1")])


def test_reserved_characters_rejected():
    with pytest.raises(GraphError):
        Graph(["a*b"], [])
    with pytest.raises(GraphError):
        Graph(["v1"], [("e^", "v1", "v1")])


def test_json_round_trip(g4):
    again = parse_graph(json.dumps(graph_to_json_dict(g4)))
    assert again == g4


def test_input_order_preserved():
    g = parse_graph(
        '{"vertices":["z","a"],"edges":['
        '{"id":"q","src":"z","dst":"a"},{"id":"p","src":"a","dst":"z"}]}'
    )
    assert g.vertices == ("z", "a")
    assert [e.id for e in g.edges] == ["q", "p"]


# ---------------------------------------------------------------------------
# paths

def test_make_path_validates_composability(g3):
    p = make_path(g3, ["e1", "e2"])
    assert p.source == "v1"
    assert p.range(g3) == "v3"
    assert p.vertices(g3) == ("v1", "v2", "v3")
    with pytest.raises(GraphError):
        make_path(g3, ["e1", "e3"])


def test_zero_length_path(g3):
    p = make_path(g3, [], source="v2")
    assert p.source == "v2"
    assert p.range(g3) == "v2"
    assert len(p) == 0
    with pytest.raises(GraphError):
        make_path(g3, [])


# ---------------------------------------------------------------------------
# reachability and hereditary machinery

def test_descendants_sink_is_trivial(g4):
    assert descendants(g4, "v5") == {"v5"}


def test_descendants_cycle(c3):
    assert descendants(c3, "v1") == {"v1", "v2", "v3"}


def test_descendants_g4(g4):
    assert descendants(g4, "v1") == {"v1", "v2", "v3", "v4", "v5"}


def test_descendants_unknown_vertex(g4):
    with pytest.raises(GraphError):
        descendants(g4, "nope")


def test_descendants_matches_oracle(exhaustive_corpus):
    for g in exhaustive_corpus:
        for v in g.vertices:
            assert descendants(g, v) == oracle_descendants(g, v)


def test_descendants_transitive(small_random_graphs):
    for g in small_random_graphs:
        pairs = reach_pairs(g)
        for v in g.vertices:
            assert descendants(g, v) == {w for w in g.vertices if (v, w) in pairs}


def test_is_hereditary_fixture_cases(g4):
    assert is_hereditary(g4, set())
    assert is_hereditary(g4, {"v2", "v3", "v4"})
    assert not is_hereditary(g4, {"v1"})


def test_hereditary_closure_fixture(g4):
    assert hereditary_closure(g4, set()) == frozenset()
    assert hereditary_closure(g4, {"v2"}) == {"v2", "v3", "v4"}


def test_hereditary_matches_oracle(exhaustive_corpus):
    for g in exhaustive_corpus:
        expected = set(oracle_hereditary_sets(g))
        got = {w for w in all_subsets(g.vertices) if is_hereditary(g, w)}
        assert got == expected


def test_closure_operator_laws(small_random_graphs):
    for g in small_random_graphs:
        subsets = list(all_subsets(g.vertices))
        for s in subsets:
            c = hereditary_closure(g, s)
            assert s <= c
            assert hereditary_closure(g, c) == c
            assert is_hereditary(g, c)
        for s in subsets[:8]:
            for t in subsets[:8]:
                if s <= t:
                    assert hereditary_closure(g, s) <= hereditary_closure(g, t)


def test_sinks_fixtures(g3, g4, two_loop):
    assert sinks(two_loop) == frozenset()
    assert sinks(g4) == {"v5"}
    assert sinks(g3) == {"v4"}


def test_is_saturated_fixtures(g3, g4):
    assert is_saturated(g3, set(g3.vertices))
    assert not is_saturated(g3, {"v4"})
    assert is_saturated(g4, {"v2", "v3", "v4"})


def test_is_saturated_requires_hereditary(g4):
    with pytest.raises(GraphError):
        is_saturated(g4, {"v1"})


def test_saturation_fixtures(g3, g4):
    assert saturation(g3, {"v4"}) == {"v1", "v2", "v3", "v4"}
    assert saturation(g4, {"v5"}) == {"v5"}


def test_saturation_is_least_fixpoint(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            got = saturation(g, w)
            assert got == oracle_saturation(g, w)
            assert w <= got
            assert is_hereditary(g, got)
            assert is_saturated(g, got)
            if oracle_is_saturated(g, w):
                assert got == w


def test_is_saturated_matches_oracle(exhaustive_corpus):
    for g in exhaustive_corpus:
        for w in oracle_hereditary_sets(g):
            assert is_saturated(g, w) == oracle_is_saturated(g, w)


# ---------------------------------------------------------------------------
# cycles

def test_cycles_chain_empty(g3):
    assert cycles(g3) == []


def test_cycles_c3(c3):
    found = cycles(c3)
    assert len(found) == 1
    assert found[0].edges == ("e1", "e2", "e3")


def test_cycles_two_parallel_loops(two_loop):
    assert [c.edges for c in cycles(two_loop)] == [("c",), ("d",)]


def test_cycles_canonical_rotation():
    g = cycle_graph(3)
    c = canonical_cycle(g, ("e2", "e3", "e1"))
    assert c.edges == ("e1", "e2", "e3")


def test_canonical_cycle_rejects_open_path(g3):
    with pytest.raises(GraphError):
        canonical_cycle(g3, ("e1", "e2"))


def test_canonical_cycle_rejects_repeated_source():
    g = Graph(
        ["v1", "v2"],
        [("a", "v1", "v2"), ("b", "v2", "v1"), ("c", "v1", "v2"), ("d", "v2", "v1")],
    )
    with pytest.raises(GraphError):
        canonical_cycle(g, ("a", "b", "c", "d"))


def test_cycles_match_oracle(exhaustive_corpus):
    for g in exhaustive_corpus:
        assert {c.edges for c in cycles(g)} == oracle_cycles(g)


def test_exits_fixtures(g2, g4, c3):
    assert exits(c3, cycles(c3)[0]) == frozenset()
    assert exits(g2, cycles(g2)[0]) == {"f"}
    (bcd,) = cycles(g4)
    assert exits(g4, bcd) == frozenset()


@pytest.mark.parametrize("corpus", ["exhaustive_corpus", "random_graphs", "wide_random_graphs"])
def test_exits_match_edge_scan(corpus, request):
    seen = 0
    for g in request.getfixturevalue(corpus):
        for c in cycles(g):
            assert exits(g, c) == oracle_exits(g, c), (c, g.edges)
            seen += bool(exits(g, c))
    assert seen > 0


def test_ne_cycles_fixtures(g2, g4, c3):
    assert ne_cycles(g2) == []
    assert [c.edges for c in ne_cycles(g4)] == [("b", "c", "d")]
    assert [c.edges for c in ne_cycles(c3)] == [("e1", "e2", "e3")]


def test_ne_cycles_are_hereditary(exhaustive_corpus):
    for g in exhaustive_corpus:
        for c in ne_cycles(g):
            vs = c.vertex_set(g)
            assert exits(g, c) == frozenset()
            assert hereditary_closure(g, vs) == vs


# ---------------------------------------------------------------------------
# factor graph

def test_factor_graph_empty_set_is_identity(g4):
    assert factor_graph(g4, set()) == g4


def test_factor_graph_g4_cases(g4):
    f1 = factor_graph(g4, {"v2", "v3", "v4"})
    assert f1.vertices == ("v1", "v5")
    assert [e.id for e in f1.edges] == ["f"]
    f2 = factor_graph(g4, {"v5"})
    assert f2.vertices == ("v1", "v2", "v3", "v4")
    assert [e.id for e in f2.edges] == ["a", "b", "c", "d"]


def test_factor_graph_rejects_everything(g4):
    with pytest.raises(GraphError):
        factor_graph(g4, set(g4.vertices))


def test_factor_graph_requires_saturated(g3):
    with pytest.raises(GraphError):
        factor_graph(g3, {"v4"})


# ---------------------------------------------------------------------------
# simplicity

def test_simple_c3_witness_cycle(c3):
    report = is_simple_graph(c3)
    assert not report.simple
    assert report.witness_subset is None
    assert report.witness_cycle.edges == ("e1", "e2", "e3")


def test_simple_two_loops(two_loop):
    assert is_simple_graph(two_loop).simple


def test_simple_g4_witness_subset(g4):
    report = is_simple_graph(g4)
    assert not report.simple
    assert report.witness_subset == {"v5"}


def _has_proper_hereditary_saturated(g):
    full = frozenset(g.vertices)
    for w in oracle_hereditary_sets(g):
        if w and w != full and oracle_is_saturated(g, w):
            return w
    return None


def test_simple_matches_exhaustive_search(exhaustive_corpus, small_random_graphs):
    for g in list(exhaustive_corpus) + list(small_random_graphs):
        report = is_simple_graph(g)
        subset = _has_proper_hereditary_saturated(g)
        exitless = [c for c in cycles(g) if not exits(g, c)]
        assert report.simple == (subset is None and not exitless)
        if report.witness_subset is not None:
            w = report.witness_subset
            assert w and w != frozenset(g.vertices)
            assert is_hereditary(g, w) and is_saturated(g, w)
        if report.witness_cycle is not None:
            assert exits(g, report.witness_cycle) == frozenset()


def test_simple_or_cycle_dichotomy(exhaustive_corpus):
    # a graph with no proper nonempty hereditary subset is simple or a cycle
    for g in exhaustive_corpus:
        proper = [w for w in oracle_hereditary_sets(g) if w and w != frozenset(g.vertices)]
        if proper:
            continue
        if is_simple_graph(g).simple:
            continue
        cyc = cycles(g)
        assert len(cyc) == 1
        assert cyc[0].vertex_set(g) == frozenset(g.vertices)
        assert len(cyc[0].edges) == len(g.edges)


# ---------------------------------------------------------------------------
# deep graphs

def test_walks_survive_deep_graphs():
    # 2,000 vertices is past the default recursion limit, so no walk may recurse per vertex.
    n = 2000
    assert sys.getrecursionlimit() < n
    chain = Graph([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    assert find_cycle_within(chain, chain.vertices) is None
    arr = arrival_paths(chain, {f"v{n - 1}"})
    assert len(arr.paths) == n
    assert arr.paths[-1] == Path("v0", tuple(f"e{i}" for i in range(n - 1)))

    ring = cycle_graph(n)
    loop = canonical_cycle(ring, [f"e{i}" for i in range(1, n + 1)])
    assert find_cycle_within(ring, ring.vertices) == loop
    assert cycles(ring) == [loop]
    fed = Graph(ring.vertices + ("s",), ring.edges + (("x", "v1", "s"),))
    assert arrival_paths(fed, {"s"}).witness == loop


def test_cycle_masks_hold_only_non_terminal_cycles(g2, g4):
    # g4's only cycle is terminal; g2's loop sits above the sink v2.
    assert condensation(g4).cycle_masks == frozenset()
    cond = condensation(g2)
    assert cond.cycle_masks == frozenset({cond.below["v2"]})


def test_one_tarjan_pass_per_graph(monkeypatch, tmp_path, capsys):
    # analyze asks for the condensation from several layers; the graph
    # computes it once, and equal graphs do not share it
    import ckcenter.graphs
    from ckcenter.cli import main

    passes = []
    real = ckcenter.graphs._tarjan
    monkeypatch.setattr(ckcenter.graphs, "_tarjan", lambda g: passes.append(g) or real(g))
    fan = Graph([f"u{i}" for i in range(13)], [(f"x{i}", "u0", f"u{i}") for i in range(1, 13)])
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(graph_to_json_dict(fan)), encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    assert "center: C^12 x T^0" in capsys.readouterr().out
    assert len(passes) == 1
    twin = Graph(fan.vertices, fan.edges)
    assert twin == fan and hash(twin) == hash(fan)
    assert condensation(fan) is condensation(fan)
    assert condensation(twin) is not condensation(fan)
    assert condensation(twin) == condensation(fan)
    assert len(passes) == 3


def test_cycles_on_a_long_chain_is_linear(monkeypatch):
    # each anchor's search stays in its own strongly connected component, so
    # a chain costs a few out-edge lookups per vertex (the condensation's
    # passes and one for the search), not one per vertex above each anchor
    n = 3000
    g = Graph([f"v{i}" for i in range(n)], [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    lookups = []
    out_edges = Graph.out_edges

    def counted(self, v):
        lookups.append(v)
        return out_edges(self, v)

    monkeypatch.setattr(Graph, "out_edges", counted)
    assert cycles(g) == []
    assert len(lookups) <= 10 * n


def test_find_cycle_within_roots_match_oracle(exhaustive_corpus, random_graphs, wide_random_graphs):
    """Rooting the search only in the allowed set, in vertex order, finds the
    same witness as rooting it at every vertex: on every subset of the small
    graphs, and on the arrival regions and some random subsets of the wide
    ones."""
    rng = random.Random(22)
    found = 0
    cases = [(g, all_subsets(g.vertices)) for g in list(exhaustive_corpus) + list(random_graphs[:150])]
    for g in wide_random_graphs:
        sets = [arrival_region(g, atom) for atom, _ in lattice_atoms(g)]
        sets += [frozenset(v for v in g.vertices if rng.random() < 0.6) for _ in range(8)]
        cases.append((g, sets + [g.vertex_set]))
    for g, sets in cases:
        for allowed in sets:
            witness = find_cycle_within(g, allowed)
            assert witness == oracle_find_cycle_within(g, allowed), (g.edges, sorted(allowed))
            found += witness is not None
    assert found > 1000, found
