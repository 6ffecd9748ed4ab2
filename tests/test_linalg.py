import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ckcenter.linalg import in_span, nullspace, rank, rank_mod_p

F = Fraction


def test_nullspace_identity_is_trivial():
    rows = [{0: F(1)}, {1: F(1)}, {2: F(1)}]
    assert nullspace(rows, 3) == []


def test_nullspace_zero_matrix_is_everything():
    basis = nullspace([], 3)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert vec[i] == 1
        assert sum(1 for x in vec if x) == 1


def test_nullspace_known_plane():
    # x + y + z = 0 inside Q^3
    basis = nullspace([{0: F(1), 1: F(1), 2: F(1)}], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_nullspace_rational_pivots():
    # 2x = 3y and y = 5z force a one-dimensional solution space
    rows = [{0: F(2), 1: F(-3)}, {1: F(1), 2: F(-5)}]
    (vec,) = nullspace(rows, 3)
    x, y, z = vec
    assert 2 * x == 3 * y and y == 5 * z and z != 0


def test_nullspace_independent_of_row_order():
    rows = [
        {0: F(1), 2: F(-1)},
        {1: F(4), 2: F(2)},
        {0: F(3), 1: F(2), 2: F(-2)},
    ]
    a = nullspace(rows, 3)
    b = nullspace(list(reversed(rows)), 3)
    assert a == b


def test_nullspace_vectors_satisfy_system():
    rng = random.Random(7)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        rows = [
            {c: F(rng.randint(-3, 3)) for c in range(ncols) if rng.random() < 0.6}
            for _ in range(rng.randint(0, 6))
        ]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        basis = nullspace(rows, ncols)
        for vec in basis:
            for r in rows:
                assert sum(r.get(c, F(0)) * vec[c] for c in range(ncols)) == 0
        assert rank(basis) == len(basis)


def test_nullspace_clears_trailing_pivot_columns():
    # Regression: a row whose leading column is fresh must still be reduced
    # against pivots sitting in its later columns, or the back-substitution
    # in nullspace reads a stale table.
    rows = [{1: F(1), 2: F(-1)}, {0: F(1), 1: F(1)}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    (vec,) = basis
    for row in rows:
        assert sum(v * vec[c] for c, v in row.items()) == 0


def test_nullspace_adversarial_insertion_orders():
    # Rows arrive sorted so every new pivot lands left of the existing ones.
    rng = random.Random(20260819)
    for _ in range(50):
        ncols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, ncols + 1)):
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            row = {c: F(rng.randint(-3, 3)) for c in cols}
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
        rows.sort(key=lambda r: -min(r))
        basis = nullspace(rows, ncols)
        for vec in basis:
            for row in rows:
                assert sum(v * vec[c] for c, v in row.items()) == 0
            assert in_span(basis, vec)
        assert rank(basis) == len(basis)


def test_rank_counts_independent_rows():
    assert rank([]) == 0
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(0)], [F(1), F(1)]]) == 2


def test_in_span():
    basis = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert in_span(basis, [F(2), F(3), F(5)])
    assert not in_span(basis, [F(0), F(0), F(1)])
    assert in_span([], [F(0), F(0)])
    assert not in_span([], {0: F(1)})


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-2, 2)) for _ in range(ncols)]
            for _ in range(rng.randint(0, 5))
        ]
        assert rank(rows) + len(nullspace(rows, ncols)) == ncols


# Entries in [-9, 9] and at most 7 x 7: by Hadamard's bound every minor is
# below (9 * sqrt(7))^7 < 5e9 < 2^61 - 1 in absolute value, so a minor that
# is nonzero over Q stays nonzero mod p and the two ranks must agree.
_small_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols), max_size=7
    )
)


@settings(max_examples=300, database=None, derandomize=True)
@given(_small_matrices)
def test_rank_mod_p_equals_rational_rank(matrix):
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    assert rank_mod_p(rows) == rank([[F(v) for v in row] for row in matrix])
