"""The value representation: paths and monomials are tuples, hashed in C,
and coefficients stay int wherever they are integral."""

from fractions import Fraction

from ckcenter import (
    center_degree_bounded,
    commutator,
    compute_center,
    edge,
    edge_star,
    format_element,
    make_path,
    multiply,
    normal_form,
    parse_element,
    star,
)
from ckcenter.algebra import AlgebraElement, Monomial
from ckcenter.graphs import Path, SizeLimitError


def _int_coefficients(el: AlgebraElement) -> bool:
    return all(type(c) is int for c in el.terms.values())


def _monomial_keys(el: AlgebraElement) -> bool:
    return all(
        type(m) is Monomial and type(m.p) is Path and type(m.q) is Path for m in el.terms
    )


def test_generators_and_kernel_bases_carry_int_coefficients(exhaustive_corpus, random_graphs):
    bases = 0
    for g in list(exhaustive_corpus[::3]) + list(random_graphs[:60]):
        assert all(_int_coefficients(el) for el in compute_center(g).generators), g.edges
        for degree in (1, 2):
            try:
                basis = center_degree_bounded(g, degree)
            except SizeLimitError:
                continue
            assert all(_int_coefficients(el) for el in basis), (g.edges, degree)
            bases += 1
    assert bases > 400


def test_fraction_coefficients_round_trip(g4):
    half = parse_element(g4, "3/2 v1 - 1/2 a·a^*")
    assert half.terms[Monomial(Path("v1"), Path("v1"))] == Fraction(3, 2)
    assert format_element(half) == "3/2 v1 - 1/2 a·a^*"
    assert parse_element(g4, format_element(half)) == half
    whole = parse_element(g4, "4/2 v1")
    assert [type(c) for c in whole.terms.values()] == [int]
    assert format_element(whole) == "2 v1"
    assert _int_coefficients(2 * half)


def test_path_length_counts_edges(g4):
    assert len(Path("v1", ("a",))) == 1
    assert len(Path("v1")) == 0
    assert len(make_path(g4, ["a", "b", "c"])) == 3


def test_paths_built_two_ways_are_one_key(g4):
    built = make_path(g4, ["a", "b"])
    literal = Path("v1", ("a", "b"))
    assert built == literal and hash(built) == hash(literal)
    assert {built: 1}[literal] == 1
    assert make_path(g4, [], source="v2") == Path("v2")


def test_terms_are_keyed_by_monomials(g4):
    """Every operation keys its terms by Monomial over Path, never by a bare
    tuple, so a tuple equal to a monomial cannot enter a dict of terms."""
    a, b = edge(g4, "a"), edge_star(g4, "b")
    z = compute_center(g4).generators[2]
    elements = [
        multiply(a, b),
        normal_form(z),
        star(z),
        commutator(a, z),
        z + a,
        parse_element(g4, "1 a*b·v3 - 2 v1"),
        *center_degree_bounded(g4, 2),
    ]
    assert all(_monomial_keys(el) for el in elements)
