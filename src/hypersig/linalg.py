"""Exact rational linear algebra: sparse matrices and nullspace bases.

Scalars are ``fractions.Fraction`` values (exported as :data:`Rational`),
so every result in this module is exact; no floating point appears
anywhere. The central operation is :func:`nullspace`, which returns the
canonical reduced-echelon kernel basis of a sparse rational matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainError

# The scalar field: exact, arbitrary precision, always in lowest terms
# with a positive denominator.
Rational = Fraction

Entry = tuple[int, int, Fraction]


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse rational matrix.

    ``entries`` holds one ``(row, col, value)`` triple per structurally
    nonzero coefficient, sorted by ``(row, col)``. Zero values and
    duplicate positions are rejected.
    """

    nrows: int
    ncols: int
    entries: tuple[Entry, ...]

    def __post_init__(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise DomainError("matrix dimensions must be non-negative")
        seen: set[tuple[int, int]] = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise DomainError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise DomainError(f"stored zero at ({r},{c})")
            if (r, c) in seen:
                raise DomainError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))

    @classmethod
    def from_entries(
        cls, nrows: int, ncols: int, entries: Iterable[tuple[int, int, Rational | int]]
    ) -> "SparseMatrix":
        ents = tuple(
            sorted((r, c, Fraction(v)) for r, c, v in entries if v != 0)
        )
        return cls(nrows, ncols, ents)

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Rational | int]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ents = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DomainError("ragged dense matrix")
            for c, v in enumerate(row):
                if v != 0:
                    ents.append((r, c, Fraction(v)))
        return cls(nrows, ncols, tuple(ents))

    def rows_as_dicts(self) -> list[dict[int, Fraction]]:
        """Row-major view; every row index appears, empty rows as ``{}``."""
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.nrows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows


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


def _integer_rows(m: SparseMatrix) -> list[dict[int, int]]:
    """Scale each row to a primitive integer row (content 1)."""
    out = []
    for row in m.rows_as_dicts():
        if not row:
            continue
        scale = lcm(*(v.denominator for v in row.values()))
        ints = {c: int(v * scale) for c, v in row.items()}
        _reduce_content(ints)
        out.append(ints)
    return out


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


class _Echelon:
    """Incremental reduced echelon form over the rationals.

    Rows are primitive integer dicts; the rational echelon row for pivot
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

    def insert(self, row: dict[int, int]) -> None:
        r = dict(row)
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

    @property
    def rank(self) -> int:
        return len(self.rows)

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


def _echelonize(m: SparseMatrix) -> _Echelon:
    ech = _Echelon()
    # insert sparse rows first; keeps intermediate fill-in low
    for row in sorted(_integer_rows(m), key=lambda r: (len(r), sorted(r.items()))):
        ech.insert(row)
    return ech


def rank(m: SparseMatrix) -> int:
    """Rank of ``m``, read off the elimination."""
    return _echelonize(m).rank


def nullspace(m: SparseMatrix) -> Basis:
    """Canonical basis of ``{v : m @ v = 0}``.

    The basis comes from the reduced echelon form of ``m``: one vector per
    free column, in ascending column order, with that free coordinate set
    to 1 and all other free coordinates 0. The output is therefore
    deterministic and invariant under row permutation and row scaling of
    the input.
    """
    return _echelonize(m).kernel_basis(m.ncols)
