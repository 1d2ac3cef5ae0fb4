"""Exact rational linear algebra: sparse matrices and nullspace bases.

Matrices hold integer rows and bases ``fractions.Fraction`` values, so
every result in this module is exact; no floating point appears
anywhere. The central operation is :func:`nullspace`, which returns the
canonical reduced-echelon kernel basis of a sparse matrix; the same
reduced echelon form gives that basis in integers to callers that
canonicalize it further. A forward, non-reduced echelon form with
single-vector back-substitution serves callers that need the rank and
one kernel vector, not a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse integer matrix, stored by rows.

    Each row is a tuple of ``(col, value)`` pairs with strictly ascending
    columns in ``range(ncols)`` and nonzero ``int`` values; an empty row
    is a zero row. A rational matrix enters through :meth:`from_dense`,
    which scales each row to integers.
    """

    ncols: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise DomainError("matrix dimensions must be non-negative")
        for r, row in enumerate(self.rows):
            prev = -1
            for c, v in row:
                if not prev < c < self.ncols:
                    raise DomainError(f"row {r}: column {c} out of range or not ascending")
                if type(v) is not int or not v:
                    raise DomainError(f"row {r}: value {v!r} at column {c} is not a nonzero int")
                prev = c

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Fraction | int]]) -> "SparseMatrix":
        """Each row scaled by the lcm of its denominators, which keeps the
        kernel."""
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise DomainError("ragged dense matrix")
        ints = _integral_rows(rows)
        return cls(ncols, tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in ints))

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _integral_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each rational row times the lcm of its own denominators: integers
    with the same zero set as a constraint, and the same kernel as a
    matrix row."""
    out = []
    for row in rows:
        k = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (k // v.denominator) for v in row])
    return out


@dataclass(frozen=True)
class Basis:
    """Basis of a subspace of the rational vector space of a given dimension.

    Vectors are dense tuples in reduced echelon form: each one carries a
    pivot coordinate equal to 1 at which every other basis vector is 0,
    which makes linear independence self-evident.
    """

    dimension_ambient: int
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vectors:
            if len(v) != self.dimension_ambient:
                raise DomainError("basis vector of wrong length")

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _reduce_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _subtract(r: dict[int, int], c: int, p: dict[int, int]) -> None:
    """Clear column ``c`` of ``r`` in place: ``r := p[c]*r - r[c]*p``,
    then divide out the content."""
    lead, x = p[c], r.pop(c)
    if lead != 1:
        for k in r:
            r[k] *= lead
    for k, v in p.items():
        if k != c:
            nv = r.get(k, 0) - x * v
            if nv:
                r[k] = nv
            else:
                del r[k]
    _reduce_content(r)


def _forward_echelon(
    rows: Iterable[Sequence[tuple[int, int]]]
) -> dict[int, dict[int, int]]:
    """Forward, non-reduced echelon form of integer rows, each given as
    its ``(column, value)`` pairs in ascending columns, fraction-free.

    Maps each pivot column to its row, a primitive integer dict whose
    smallest column is the pivot: a row is cleared at its smallest column
    (:func:`_subtract`) while that column already has a pivot. The column
    numbering is the pivot order, so callers relabel columns to choose it.
    The number of pivots is the rank.

    Rows whose columns lie furthest right go in first, columns compared
    from the right (the whole list, not only the highest column): a row
    is reduced only while its smallest column holds a pivot, and rows
    that come later reach further left, so most of them become pivots at
    once.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=lambda r: [-c for c, _ in reversed(r)]):
        r = dict(row)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            _subtract(r, c, p)
    return pivots


def _kernel_vector(
    pivots: dict[int, dict[int, int]], ncols: int, free: Iterable[int]
) -> list[int]:
    """Integer kernel vector of a :func:`_forward_echelon` system.

    Back-substitution from the last column down: each free column takes
    the next value of ``free`` (one per free column), each pivot column
    is solved from its row. When a pivot does not divide its row's sum,
    every coordinate set so far is multiplied by the missing factor, so
    the vector stays integral.
    """
    v = [0] * ncols
    draws = iter(free)
    for c in range(ncols - 1, -1, -1):
        p = pivots.get(c)
        if p is None:
            v[c] = next(draws)
            continue
        lead = p[c]
        s = sum(x * v[k] for k, x in p.items() if k != c)
        if s % lead:
            scale = abs(lead) // gcd(s, lead)
            for k in range(c + 1, ncols):
                v[k] *= scale
            s *= scale
        v[c] = -s // lead
    return v


def _reduced_echelon(
    rows: Iterable[Sequence[tuple[int, int]]]
) -> dict[int, dict[int, int]]:
    """Reduced echelon form of integer rows, each given as its
    ``(column, value)`` pairs in ascending columns, fraction-free.

    Maps each pivot column ``c`` to a primitive integer dict ``p`` with
    ``p[c] > 0`` whose smallest column is ``c``; the rational echelon row
    is ``p / p[c]``. Built by insertion: a row is divided by its content
    and cleared at every pivot column it hits (:func:`_subtract`), and a
    new pivot is cleared from every row that holds it. Invariant: each
    pivot row is zero in every other pivot column, so clearing one pivot
    column neither creates nor clears another, and one pass over the
    pivot columns a row hits reduces it fully.

    The reduced echelon form of a row space is unique, so the result does
    not depend on the order, scaling or permutation of the rows; the
    order only changes the work. Rows go in sparse first, and among rows
    of one length those whose columns lie furthest right first: a pivot
    right of every earlier one is in no earlier row, so clearing it costs
    nothing.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=lambda r: (len(r), [-c for c, _ in r])):
        r = dict(row)
        _reduce_content(r)
        for c in [c for c in r if c in pivots]:
            _subtract(r, c, pivots[c])
        if not r:
            continue
        c0 = min(r)
        if r[c0] < 0:
            for k in r:
                r[k] = -r[k]
        for p in pivots.values():
            if c0 in p:
                _subtract(p, c0, r)
        pivots[c0] = r
    return pivots


def _kernel_vectors(
    pivots: dict[int, dict[int, int]], ncols: int
) -> list[tuple[int, dict[int, int]]]:
    """The canonical kernel basis of a :func:`_reduced_echelon` system, in
    integers: for each free column ``f`` in ascending order, ``(f, v)``
    with ``v`` the sparse kernel vector that is 1 at ``f`` and 0 at every
    other free column, times the lcm of its denominators, so ``v[f] > 0``.
    Every column of a pivot row other than its pivot is free."""
    hits: dict[int, list[tuple[int, int, int]]] = {f: [] for f in range(ncols) if f not in pivots}
    for pc, p in pivots.items():
        lead = p[pc]
        for c, x in p.items():
            if c != pc:
                hits[c].append((pc, x, lead))
    out = []
    for f, entries in hits.items():
        d = lcm(*(lead for _, _, lead in entries))
        v = {f: d}
        for pc, x, lead in entries:
            v[pc] = -x * (d // lead)
        out.append((f, v))
    return out


def nullspace(m: SparseMatrix) -> Basis:
    """Canonical basis of ``{v : m @ v = 0}``.

    The basis comes from the reduced echelon form of ``m``: one vector per
    free column, in ascending column order, with that free coordinate set
    to 1 and all other free coordinates 0. The output is therefore
    deterministic and invariant under row permutation and row scaling of
    the input.
    """
    pivots = _reduced_echelon(m.rows)
    vectors = []
    for f, v in _kernel_vectors(pivots, m.ncols):
        d, row = v[f], [_ZERO] * m.ncols
        for c, x in v.items():
            row[c] = Fraction(x, d)
        vectors.append(tuple(row))
    return Basis(m.ncols, tuple(vectors))
