"""Exact rational linear algebra: sparse matrices and nullspace bases.

Matrices hold integer rows and bases ``fractions.Fraction`` values, so
every result in this module is exact; no floating point appears
anywhere. The central operation is :func:`nullspace`, which returns the
canonical reduced-echelon kernel basis of a sparse matrix. A forward,
non-reduced echelon form with single-vector back-substitution serves
callers that need the rank and one kernel vector, not a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse integer matrix, stored by rows.

    Each row is a tuple of ``(col, value)`` pairs with strictly ascending
    columns in ``range(ncols)`` and nonzero ``int`` values; an empty row
    is a zero row. Constraint assembly builds these rows directly, and a
    rational matrix enters through :meth:`from_dense`, which scales each
    row to integers.
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

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """``(row, col, value)`` triples in row-major order; a view kept
        for the tests and for the nnz counter that perfbench reads off
        ``signals.assemble_constraints``."""
        return tuple((r, c, v) for r, row in enumerate(self.rows) for c, v in row)


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
    rows: Iterable[Iterable[tuple[int, int]]]
) -> dict[int, dict[int, int]]:
    """Forward, non-reduced echelon form of integer rows, each given as
    its ``(column, value)`` pairs, fraction-free.

    Maps each pivot column to its row, a primitive integer dict whose
    smallest column is the pivot: a row is cleared at its smallest column
    (:func:`_subtract`) while that column already has a pivot. The column
    numbering is the pivot order, so callers relabel columns to choose it.
    The number of pivots is the rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
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


class _Echelon:
    """Incremental reduced echelon form over the rationals.

    Rows are primitive integer dicts (:meth:`insert` divides out the
    content of a row as it enters); the rational echelon row for pivot
    column ``c`` is ``rows[c] / rows[c][c]``, and ``rows[c][c] > 0``.
    Invariant: each pivot row is zero in every other pivot column, so
    clearing one pivot column of a row (:func:`_subtract`, integer only)
    neither creates nor clears another, and one pass over the pivot
    columns a row hits reduces it fully. The reduced echelon form of a
    row space is unique, hence the result does not depend on insertion
    order, row scaling, or row permutation of the input.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    def insert(self, row: Iterable[tuple[int, int]]) -> None:
        r = dict(row)
        _reduce_content(r)
        for c in [c for c in r if c in self.rows]:
            _subtract(r, c, self.rows[c])
        if not r:
            return
        c0 = min(r)
        if r[c0] < 0:
            for k in r:
                r[k] = -r[k]
        for p in self.rows.values():
            if c0 in p:
                _subtract(p, c0, r)
        self.rows[c0] = r

    def kernel_basis(self, ncols: int) -> Basis:
        free = [c for c in range(ncols) if c not in self.rows]
        vectors = []
        for f in free:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for pc, p in self.rows.items():
                if f in p:
                    v[pc] = Fraction(-p[f], p[pc])
            vectors.append(tuple(v))
        return Basis(ncols, tuple(vectors))


def nullspace(m: SparseMatrix) -> Basis:
    """Canonical basis of ``{v : m @ v = 0}``.

    The basis comes from the reduced echelon form of ``m``: one vector per
    free column, in ascending column order, with that free coordinate set
    to 1 and all other free coordinates 0. The output is therefore
    deterministic and invariant under row permutation and row scaling of
    the input.
    """
    ech = _Echelon()
    # insert sparse rows first; keeps intermediate fill-in low
    for row in sorted(m.rows, key=lambda r: (len(r), r)):
        ech.insert(row)
    return ech.kernel_basis(m.ncols)
