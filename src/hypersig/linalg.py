"""Exact rational linear algebra: sparse matrices and nullspace bases.

Matrices hold integer rows and bases ``fractions.Fraction`` values, so
every result in this module is exact; no floating point appears
anywhere. There is one elimination, a fraction-free forward echelon
form. Back-substitution from it gives one kernel vector for given free
values: seeded random values for callers that need the rank and one
vector, one-hot values for the canonical kernel basis of
:func:`nullspace` and of the signal spaces.
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
    g = 0
    for v in r.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in r:
            r[k] //= g


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
    pivots: dict[int, dict[int, int]], ncols: int, free: dict[int, int]
) -> list[int]:
    """Integer kernel vector of a :func:`_forward_echelon` system.

    Back-substitution from the last column of ``free`` down: each free
    column ``c`` takes the value ``free.get(c, 0)``, each pivot column is
    solved from its row. A pivot column is solved only from columns right
    of it, so every column right of the last one in ``free`` is 0. When a
    pivot does not divide its row's sum, every coordinate set so far is
    multiplied by the missing factor, so the vector stays integral.
    """
    v = [0] * ncols
    top = max(free)
    for c in range(top, -1, -1):
        p = pivots.get(c)
        if p is None:
            v[c] = free.get(c, 0)
            continue
        lead = p[c]
        s = sum(x * v[k] for k, x in p.items())  # v[c] is still 0
        if s % lead:
            scale = abs(lead) // gcd(s, lead)
            for k in range(c + 1, top + 1):
                v[k] *= scale
            s *= scale
        v[c] = -s // lead
    return v


def _kernel_basis(
    rows: Iterable[Sequence[tuple[int, int]]], ncols: int
) -> list[tuple[int, list[int]]]:
    """The canonical kernel basis of integer rows, given as for
    :func:`_forward_echelon`: for each free column ``f`` in ascending
    order, ``(f, v)`` with ``v`` the primitive integer kernel vector that
    is positive at ``f`` and 0 at every other free column. A pivot column
    is solved only from columns right of it, so ``f`` is the last nonzero
    coordinate of ``v``."""
    pivots = _forward_echelon(rows)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = _kernel_vector(pivots, ncols, {f: 1})
        g = gcd(*v)
        out.append((f, [x // g for x in v]))
    return out


def nullspace(m: SparseMatrix) -> Basis:
    """Canonical basis of ``{v : m @ v = 0}``.

    One vector per free column of the forward echelon form of ``m``, in
    ascending column order, with that free coordinate set to 1 and all
    other free coordinates 0 (:func:`_kernel_basis`). The kernel fixes
    these vectors, so the output is deterministic and invariant under row
    permutation and row scaling of the input.
    """
    vectors = []
    for f, v in _kernel_basis(m.rows, m.ncols):
        vectors.append(tuple(Fraction(x, v[f]) if x else _ZERO for x in v))
    return Basis(m.ncols, tuple(vectors))
