import time

import pytest

from ckcenter import (
    AtomSummary,
    Graph,
    SizeLimitError,
    compute_center,
    cross_check_center,
    format_element,
    is_central,
    is_simple_graph,
    multiply,
    parse_element,
    predicted_central_elements,
    star,
    unit,
    zero,
)

from conftest import cycle_graph
from oracles import oracle_classify_atom, oracle_lattice


# ---------------------------------------------------------------------------
# fixture reproductions

def test_center_cycle_graphs():
    for n in (1, 2, 3, 5):
        g = cycle_graph(n)
        report = compute_center(g)
        assert (report.c_count, report.t_count) == (0, 1)
        assert report.verified
        assert report.atoms[0].cycle is not None
        assert len(report.atoms[0].cycle.edges) == n


def test_center_g2(g2):
    report = compute_center(g2)
    assert (report.c_count, report.t_count) == (1, 0)
    assert report.verified
    assert len(report.generators) == 1
    assert report.generators[0] == unit(g2)
    assert report.generator_labels == ("e({v1,v2})",)


def test_center_g3(g3):
    report = compute_center(g3)
    assert (report.c_count, report.t_count) == (1, 0)
    assert report.verified
    assert report.generators[0] == unit(g3)


def test_center_g4(g4):
    report = compute_center(g4)
    assert (report.c_count, report.t_count) == (1, 1)
    assert report.verified
    assert report.summand_description() == "C^1 x T^1"
    by_vertices = {a.vertices: a for a in report.atoms}
    assert by_vertices[("v5",)].kind == "C"
    t_atom = by_vertices[("v2", "v3", "v4")]
    assert t_atom.kind == "T"
    assert t_atom.cycle.edges == ("b", "c", "d")
    assert report.generator_labels == (
        "e({v5})",
        "e({v2,v3,v4})",
        "z(b·c·d)^1",
        "z(b·c·d)^-1",
    )


def test_center_report_json(g4):
    doc = compute_center(g4).to_json_dict()
    assert doc["c_count"] == 1
    assert doc["t_count"] == 1
    assert doc["verified"] is True
    assert doc["atoms"] == [
        {"vertices": ["v5"], "type": "C", "cycle": None},
        {"vertices": ["v2", "v3", "v4"], "type": "T", "cycle": ["b", "c", "d"]},
    ]
    # generator strings parse back to the generator elements
    report = compute_center(g4)
    for text, el in zip(doc["generators"], report.generators):
        assert parse_element(g4, text) == el


def test_simple_graph_center_is_scalar(two_loop):
    assert is_simple_graph(two_loop).simple
    report = compute_center(two_loop)
    assert (report.c_count, report.t_count) == (1, 0)
    assert report.generators[0] == unit(two_loop)


# ---------------------------------------------------------------------------
# corpus properties

def test_center_verified_on_corpus(exhaustive_corpus, small_random_graphs):
    for g in list(exhaustive_corpus) + list(small_random_graphs):
        report = compute_center(g)
        assert report.verified, g
        assert report.c_count + report.t_count == len(report.atoms)
        assert len(report.atoms) >= 1


def test_center_orthogonality_and_sum(small_random_graphs):
    for g in small_random_graphs[:40]:
        report = compute_center(g)
        idem = [
            el
            for label, el in zip(report.generator_labels, report.generators)
            if label.startswith("e(")
        ]
        total = zero(g)
        for e in idem:
            total = total + e
        assert total == unit(g)
        for i, a in enumerate(idem):
            for b in idem[i + 1 :]:
                assert multiply(a, b).is_zero()


def test_simple_graphs_have_scalar_center(exhaustive_corpus):
    for g in exhaustive_corpus:
        if not is_simple_graph(g).simple:
            continue
        report = compute_center(g)
        assert (report.c_count, report.t_count) == (1, 0)
        assert len(report.generators) == 1
        assert report.generators[0] == unit(g)


def test_t_atom_corner_unitarity(g4, c3):
    for g in (g4, c3):
        report = compute_center(g)
        for atom in report.atoms:
            if atom.kind != "T":
                continue
            label_base = "z(" + "·".join(atom.cycle.edges) + ")"
            gens = dict(zip(report.generator_labels, report.generators))
            e = gens[f"e({{{','.join(atom.vertices)}}})"]
            plus = gens[f"{label_base}^1"]
            minus = gens[f"{label_base}^-1"]
            assert multiply(e, plus) == plus
            assert multiply(plus, e) == plus
            assert multiply(plus, minus) == e
            assert multiply(minus, plus) == e
            assert star(plus) == minus


def test_center_guard():
    g = Graph([f"u{i}" for i in range(17)], [])
    with pytest.raises(SizeLimitError):
        compute_center(g)


def test_center_complete_graph_stays_fast():
    # K_10 has millions of simple cycles and 2^10 vertex subsets; neither
    # may be enumerated on the way to its single C-atom.
    vs = [f"u{i}" for i in range(10)]
    g = Graph(vs, [(f"x{i}_{j}", a, b) for i, a in enumerate(vs) for j, b in enumerate(vs)])
    start = time.perf_counter()
    report = compute_center(g)
    elapsed = time.perf_counter() - start
    assert (report.c_count, report.t_count) == (1, 0)
    assert report.verified
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# cross-check against the degree-bounded solver

def test_cross_check_g2(g2):
    result = cross_check_center(g2, 2)
    assert result.predicted_dim == 1
    assert result.kernel_dim == 1
    assert result.agrees


def test_cross_check_g4_degree_one(g4):
    result = cross_check_center(g4, 1)
    assert result.predicted_in_kernel
    assert result.dims_match
    assert set(result.predicted_labels) == {
        "e({v5})",
        "e({v2,v3,v4})",
        "e({v1,v2,v3,v4,v5})",
    }
    assert result.predicted_dim == 2
    assert result.kernel_dim == 2


def test_cross_check_c3_finds_rotation_sum(c3):
    result = cross_check_center(c3, 3)
    assert "z(e1·e2·e3)^1" in result.predicted_labels
    assert "z(e1·e2·e3)^-1" in result.predicted_labels
    assert result.agrees
    assert result.kernel_dim == 3


def test_cross_check_json_shape(g4):
    doc = cross_check_center(g4, 1).to_json_dict()
    assert set(doc) == {
        "degree",
        "candidate_count",
        "kernel_dim",
        "predicted_dim",
        "predicted_in_kernel",
        "dims_match",
        "agrees",
        "predicted_labels",
    }


def test_predicted_elements_are_central(g4):
    for label, el in predicted_central_elements(g4, 2):
        assert is_central(el)[0], label


def test_cross_check_containment_on_corpus(exhaustive_corpus):
    checked = 0
    for g in exhaustive_corpus[:250]:
        try:
            result = cross_check_center(g, 1, oracle_bound=60)
        except SizeLimitError:
            continue
        assert result.predicted_in_kernel, g
        checked += 1
    assert checked >= 150


def test_cross_check_guard(c3):
    with pytest.raises(SizeLimitError):
        cross_check_center(c3, 3, oracle_bound=5)


# ---------------------------------------------------------------------------
# the atoms-only center path

@pytest.mark.parametrize("corpus", ["exhaustive_corpus", "random_graphs", "wide_random_graphs"])
def test_center_atoms_match_oracles(corpus, request):
    for g in request.getfixturevalue(corpus):
        expected = []
        for a in oracle_lattice(g)[1]:
            matches = oracle_classify_atom(g, a)
            assert len(matches) <= 1
            expected.append(AtomSummary(tuple(sorted(a)), matches[0] if matches else None))
        assert compute_center(g).atoms == tuple(expected), g.edges


def test_center_never_lists_the_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compute_center listed the lattice elements")

    monkeypatch.setattr("ckcenter.center.finitary_annihilator_lattice", refuse)
    fan = Graph([f"u{i}" for i in range(16)], [(f"x{i}", "u0", f"u{i}") for i in range(1, 16)])
    report = compute_center(fan)
    assert report.summand_description() == "C^15 x T^0"
    assert report.verified


def test_center_refuses_uncertified_atoms(g4, monkeypatch):
    import ckcenter.center

    real = ckcenter.center.lattice_atoms
    monkeypatch.setattr(ckcenter.center, "lattice_atoms", lambda g: real(g)[1:])
    with pytest.raises(RuntimeError, match="certificate"):
        compute_center(g4)
