"""Sparse exact linear algebra over the rationals, and ranks over F_p.

Rows are dicts mapping column index to a nonzero Fraction.  The pivot table
built by repeated insertion is a reduced row echelon form, which is unique
for a given row space, so nullspace bases and span tests come out the same
no matter what order rows arrive in.  rank_mod_p reduces integer rows
modulo the prime 2^61 - 1 instead, a lower bound for their rank over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Row = dict[int, Fraction]

_ZERO, _ONE = Fraction(0), Fraction(1)
_P = (1 << 61) - 1


def _as_row(entries) -> Row:
    if isinstance(entries, dict):
        return {c: Fraction(v) for c, v in entries.items() if v}
    return {c: Fraction(v) for c, v in enumerate(entries) if v}


def _eliminate(row: Row, pivots: dict[int, Row]) -> Row:
    """Subtract pivot rows to clear every pivot column from the row.

    Stored pivot rows carry no pivot column besides their own, so one pass
    over the shared columns is complete: the subtractions only introduce
    entries in free columns.
    """
    r = dict(row)
    for c in r.keys() & pivots.keys():
        f = r[c]
        for cc, vv in pivots[c].items():
            nv = r.get(cc, 0) - f * vv
            if nv:
                r[cc] = nv
            else:
                r.pop(cc, None)
    return r


def _pivot_table(rows: Iterable[Sequence[Fraction] | Row]) -> dict[int, Row]:
    """The RREF of the rows' span, pivot column -> its reduced row, built by
    adding one row at a time; a dependent row eliminates to nothing."""
    pivots: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}  # column -> pivots of the rows holding it
    for row in rows:
        r = _eliminate(_as_row(row), pivots)
        if not r:
            continue
        c = min(r)
        inv = _ONE / r[c]
        r = {cc: vv * inv for cc, vv in r.items()}
        for pc in list(holders.get(c, ())):
            pr = pivots[pc]
            f = pr[c]
            for cc, vv in r.items():
                nv = pr.get(cc, 0) - f * vv
                if nv:
                    pr[cc] = nv
                    holders.setdefault(cc, set()).add(pc)
                else:
                    del pr[cc]
                    holders[cc].discard(pc)
        pivots[c] = r
        for cc in r:
            holders.setdefault(cc, set()).add(c)
    return pivots


def _sparse_nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Canonical basis of {x : Ax = 0}: one vector per free column, in
    column order, with a 1 in the free position and pivot entries read off
    the RREF in one pass over its nonzeros."""
    pivots = _pivot_table(rows)
    basis: dict[int, Row] = {free: {} for free in range(ncols) if free not in pivots}
    for pc in sorted(pivots):
        for cc, vv in pivots[pc].items():
            if cc != pc:
                basis[cc][pc] = -vv
    for free, vec in basis.items():
        vec[free] = _ONE
    return list(basis.values())


def nullspace(rows: Iterable[Row], ncols: int) -> list[list[Fraction]]:
    """_sparse_nullspace's basis as dense vectors."""
    return [[vec.get(c, _ZERO) for c in range(ncols)] for vec in _sparse_nullspace(rows, ncols)]


def rank(vectors: Iterable[Sequence[Fraction] | Row]) -> int:
    return len(_pivot_table(vectors))


def in_span(vectors: Iterable[Sequence[Fraction] | Row], target: Sequence[Fraction] | Row) -> bool:
    return not _eliminate(_as_row(target), _pivot_table(vectors))


def rank_mod_p(rows: Iterable[dict[int, int]]) -> int:
    """Rank over F_p, p = 2^61 - 1, of rows of ints.  It never exceeds the
    rank over Q, as a minor that is nonzero mod p is a nonzero integer."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {c: v % _P for c, v in row.items() if v % _P}
        while r:
            c = min(r)
            pr = pivots.get(c)
            if pr is None:
                inv = pow(r[c], -1, _P)
                pivots[c] = {cc: vv * inv % _P for cc, vv in r.items()}
                break
            f = r[c]
            for cc, vv in pr.items():
                nv = (r.get(cc, 0) - f * vv) % _P
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
    return len(pivots)
