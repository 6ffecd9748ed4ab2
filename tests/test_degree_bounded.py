"""The degree-bounded kernel: the edge-row block solver against the solver
over every candidate and every generator, the cross-check over the whole
corpus with no run skipped by the oracle bound, and the cross-check's
integer certificate against its exact fallback."""

import pytest

import ckcenter.algebra
import ckcenter.center
import ckcenter.linalg
from ckcenter import (
    AlgebraElement,
    SizeLimitError,
    bounded_basis_monomials,
    center_degree_bounded,
    cross_check_center,
)
from ckcenter.linalg import in_span

from oracles import oracle_center_degree_bounded, oracle_cross_check, random_corpus


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


def _corpus_runs(exhaustive_corpus, random_graphs):
    return [(g, degree) for g in exhaustive_corpus + random_graphs for degree in (1, 2)]


def _spy_fallbacks(monkeypatch) -> list:
    """Record each rational rank the cross-check takes, which it does only
    when the certificate over F_p does not close."""
    calls = []
    exact = ckcenter.center.rank

    def spy(vectors):
        calls.append(vectors)
        return exact(vectors)

    monkeypatch.setattr(ckcenter.center, "rank", spy)
    return calls


def test_agreeing_cross_check_does_no_exact_elimination(
    exhaustive_corpus, random_graphs, c3, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("the agreeing cross-check ran a rational elimination")

    for module in (ckcenter.linalg, ckcenter.algebra, ckcenter.center):
        for name in ("_pivot_table", "nullspace", "_kernel_vectors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for g, degree in _corpus_runs(exhaustive_corpus, random_graphs):
        assert cross_check_center(g, degree, oracle_bound=4000).agrees
    check = cross_check_center(c3, 3)
    assert check.agrees and check.kernel_dim == 3


def test_wrong_rank_mod_p_falls_back_to_the_same_numbers(
    exhaustive_corpus, random_graphs, monkeypatch
):
    runs = _corpus_runs(exhaustive_corpus, random_graphs)
    certified = [cross_check_center(g, d, oracle_bound=4000).to_json_dict() for g, d in runs]
    true_rank = ckcenter.linalg.rank_mod_p
    fallbacks = _spy_fallbacks(monkeypatch)
    exact = []
    for n, (g, degree) in enumerate(runs):
        shift = 1 if n % 2 else -1
        monkeypatch.setattr(ckcenter.center, "rank_mod_p", lambda rows: true_rank(rows) + shift)
        before = len(fallbacks)
        exact.append(cross_check_center(g, degree, oracle_bound=4000).to_json_dict())
        assert len(fallbacks) > before
    assert exact == certified


def _non_central_terms(g, degree, kernel) -> list:
    """The first candidate with s(p) != s(q), and the first with s(p) = s(q)
    outside the exact kernel, where they exist."""
    monos = bounded_basis_monomials(g, degree)
    index = {m: j for j, m in enumerate(monos)}
    kernel = [{index[m]: c for m, c in el.terms.items()} for el in kernel]
    off_diagonal = (m for m in monos if m.p.source != m.q.source)
    off_kernel = (m for m in monos
                  if m.p.source == m.q.source and not in_span(kernel, {index[m]: 1}))
    return [m for m in (next(off_diagonal, None), next(off_kernel, None)) if m]


def test_mutated_predictions_take_the_exact_path(exhaustive_corpus, monkeypatch):
    predict = ckcenter.center.predicted_central_elements
    fallbacks = _spy_fallbacks(monkeypatch)
    mutated: list = []
    monkeypatch.setattr(ckcenter.center, "predicted_central_elements", lambda *a, **k: mutated)
    dropped_disagreements = added = 0
    for g in exhaustive_corpus:
        for degree in (1, 2):
            elements = predict(g, degree)
            if not elements:
                continue
            kernel = center_degree_bounded(g, degree, 4000)
            label, el = elements[0]
            mutants = [(elements[1:], "dropped")] + [
                ([(label, el + AlgebraElement(g, {m: 1}))] + elements[1:], "added")
                for m in _non_central_terms(g, degree, kernel)
            ]
            for mutant, kind in mutants:
                mutated[:] = mutant
                before = len(fallbacks)
                check = cross_check_center(g, degree, oracle_bound=4000)
                exact = oracle_cross_check(g, degree, mutant, kernel)
                assert check.to_json_dict() == exact.to_json_dict()
                if kind == "added":
                    assert not check.predicted_in_kernel
                    added += 1
                # a dropped prediction that the others span still agrees
                if not exact.agrees:
                    assert len(fallbacks) > before
                    dropped_disagreements += kind == "dropped"
    assert dropped_disagreements >= 100 and added >= 1000
