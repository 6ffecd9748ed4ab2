"""The degree-bounded kernel: the edge-row block solver against the solver
over every candidate and every generator, and the cross-check over the
whole corpus with no run skipped by the oracle bound."""

import pytest

import ckcenter.algebra
from ckcenter import SizeLimitError, center_degree_bounded, cross_check_center

from oracles import oracle_center_degree_bounded, random_corpus


def _same_kernel(g, degree) -> bool:
    """Both solvers give the same basis, element for element, or refuse with
    the same message; True when they ran."""
    try:
        fast = center_degree_bounded(g, degree)
    except SizeLimitError as exc:
        with pytest.raises(SizeLimitError) as refused:
            oracle_center_degree_bounded(g, degree)
        assert str(refused.value) == str(exc)
        return False
    slow = oracle_center_degree_bounded(g, degree)
    assert [el.terms for el in fast] == [el.terms for el in slow]
    return True


def test_kernel_matches_oracle_on_exhaustive_corpus(exhaustive_corpus):
    ran = sum(_same_kernel(g, degree) for g in exhaustive_corpus for degree in (1, 2))
    assert ran >= 1500


def test_kernel_matches_oracle_on_random_graphs():
    graphs = random_corpus(seed=20261020, count=640)
    ran = sum(_same_kernel(g, degree) for g in graphs for degree in (1, 2))
    assert ran >= 1000


def test_cross_check_agrees_on_whole_corpus(exhaustive_corpus, random_graphs):
    runs = 0
    for g in exhaustive_corpus + random_graphs:
        for degree in (1, 2):
            assert cross_check_center(g, degree, oracle_bound=4000).agrees
            runs += 1
    assert runs == 2580


def test_cross_check_agrees_at_degree_three(exhaustive_corpus, random_graphs):
    agreed = 0
    for g in exhaustive_corpus + random_graphs:
        try:
            check = cross_check_center(g, 3, oracle_bound=1500)
        except SizeLimitError:
            continue
        assert check.agrees
        agreed += 1
    assert agreed >= 1100


def test_kernel_needs_no_products(c3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver must not multiply elements")

    for name in ("commutator", "multiply", "normal_form"):
        monkeypatch.setattr(ckcenter.algebra, name, refuse)
    assert len(center_degree_bounded(c3, 3)) == 3


def test_candidate_count_matches_the_listing(exhaustive_corpus):
    from ckcenter.algebra import _candidate_count, bounded_basis_monomials

    for g in exhaustive_corpus:
        for degree in (1, 2, 3):
            assert _candidate_count(g, degree) == len(bounded_basis_monomials(g, degree)), g.edges


def test_oracle_bound_refuses_before_listing(monkeypatch, capsys):
    # 1,430,627 candidates at degree 12: the guard must count them, not list them
    import io
    import json

    from ckcenter.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("the candidates were listed before the bound was checked")

    monkeypatch.setattr(ckcenter.algebra, "bounded_basis_monomials", refuse)
    edges = [("x1", "u1", "u1"), ("x2", "u1", "u2"), ("x3", "u2", "u1"), ("x4", "u2", "u3"),
             ("x5", "u3", "u3")]
    doc = {"vertices": ["u1", "u2", "u3"],
           "edges": [{"id": i, "src": s, "dst": d} for i, s, d in edges]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["cross-check", "-", "--degree", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "1430627 candidate monomials exceed the oracle bound 150"
    assert captured.err == f"error: {message}\n"
    g = ckcenter.Graph(doc["vertices"], edges)
    with pytest.raises(SizeLimitError, match=message):
        center_degree_bounded(g, 12)
