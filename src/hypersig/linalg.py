"""Exact rational linear algebra: sparse matrices and nullspace bases.

Scalars are ``fractions.Fraction`` values (exported as :data:`Rational`),
so every result in this module is exact; no floating point appears
anywhere. The central operation is :func:`nullspace`, which returns the
canonical reduced-echelon kernel basis of a sparse rational matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _integer_rows(m: SparseMatrix) -> list[dict[int, int]]:
    """Scale each row to a primitive integer row (content 1)."""
    out = []
    for row in m.rows_as_dicts():
        if not row:
            continue
        scale = 1
        for v in row.values():
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = {c: int(v * scale) for c, v in row.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
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


class _Echelon:
    """Incremental reduced echelon form over the rationals.

    Rows are kept as primitive integer dicts; the rational echelon row for
    pivot column ``c`` is ``rows[c] / rows[c][c]``. Row updates use
    cross-multiplication followed by content reduction, so no Fraction
    arithmetic happens in the elimination loop. The reduced echelon form
    of a row space is unique, hence the result does not depend on
    insertion order, row scaling, or row permutation of the input.
    """

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}
        # col -> pivot cols of rows with a nonzero coefficient there
        self.colindex: dict[int, set[int]] = {}

    def insert(self, row: dict[int, int]) -> None:
        r = dict(row)
        while r:
            hits = [c for c in r if c in self.rows]
            if not hits:
                break
            c = min(hits)
            p = self.rows[c]
            lead, x = p[c], r.pop(c)
            if lead != 1:
                for k in list(r):
                    r[k] *= lead
            for k, v in p.items():
                if k == c:
                    continue
                nv = r.get(k, 0) - x * v
                if nv:
                    r[k] = nv
                elif k in r:
                    del r[k]
            _reduce_content(r)
        if not r:
            return
        c0 = min(r)
        if r[c0] < 0:
            for k in r:
                r[k] = -r[k]
        self._eliminate_column(c0, r)
        self.rows[c0] = r
        for k in r:
            if k != c0:
                self.colindex.setdefault(k, set()).add(c0)

    def _eliminate_column(self, c0: int, r: dict[int, int]) -> None:
        owners = self.colindex.pop(c0, None)
        if not owners:
            return
        lead = r[c0]
        for pc in owners:
            p = self.rows[pc]
            x = p.pop(c0)
            if lead != 1:
                for k in list(p):
                    p[k] *= lead
            for k, v in r.items():
                if k == c0:
                    continue
                nv = p.get(k, 0) - x * v
                if nv:
                    p[k] = nv
                    self.colindex.setdefault(k, set()).add(pc)
                else:
                    if k in p:
                        del p[k]
                        self.colindex.get(k, set()).discard(pc)
            _reduce_content(p)

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
