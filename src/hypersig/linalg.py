"""Integer linear algebra: two eliminations and their kernel vectors.

No floating point appears anywhere, and callers build
``fractions.Fraction`` values only for output. There are two
eliminations. The exact one is a fraction-free forward echelon form of
integer rows, each its ``(column, value)`` pairs: back-substitution from
it gives one kernel vector for given free values, seeded random values
for fusion, one-hot values for the canonical kernel basis of a map and
of the signal spaces. Fusion peels its edge-sum system first
(``signals._edge_sum_peel``) and hands only the 2-core left to the
exact elimination; the rows peeled are solved one private vertex each,
after the core's back-substitution. The other is the same forward
elimination modulo 3 on bitsliced rows, which gives the rank modulo 3
and each column's values over the whole kernel modulo 3: a candidate
and a bound for the one certificate of fusion,
``signals._certified_frame``, which says why they certify it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _integral_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each rational row times the lcm of its own denominators: integers
    with the same zero set as a constraint, and the same kernel as a
    matrix row."""
    out = []
    for row in rows:
        k = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (k // v.denominator) for v in row])
    return out


def _subtract(r: dict[int, int], c: int, p: dict[int, int]) -> None:
    """Clear column ``c`` of ``r`` in place: ``r := (p[c]/g)*r - (r[c]/g)*p``,
    ``g`` their gcd signed as ``p[c]``, then divide out the content; ``r``
    is scaled, by a positive factor, only where ``p[c]`` does not divide ``r[c]``."""
    lead, x = p[c], r.pop(c)
    g = gcd(lead, x) if lead > 0 else -gcd(lead, x)
    lead, x = lead // g, x // g
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


def _gf3_kernel(rows: Iterable[tuple[int, int]], ncols: int) -> tuple[int, list[tuple[int, int]]]:
    """Rank modulo 3 of bitsliced rows, and each column's values over a
    basis of their kernel modulo 3.

    A vector over GF(3) is two bitmask ints: the columns whose value is 1
    and those whose value is 2. A difference is seven ``|``/``^``
    operations on them, and negation swaps the two, so a sum is a
    difference. The elimination is :func:`_forward_echelon`'s: a row is
    cleared at its smallest column while that column has a pivot, pivot
    rows scaled to 1 there, rows furthest right first (support masks in
    descending order). Each pivot row is stored once: its negation is the
    same pair read in the other order, so adding it costs no copy.

    One back-substitution, from the last column down, then solves every
    pivot column over the whole kernel basis at once, packed as a vector
    of ``k`` bits for ``k`` free columns: the free columns are numbered
    ``0..k-1`` from the left, and the basis vector of the ``i``-th is bit
    ``i`` of each column's packed value, so a free column's value is its
    unit vector. A pivot column's value is minus the sum of its row's
    entries times the values of their columns, free and pivot alike, all
    right of it. Two columns take equal values on every kernel vector iff
    their packed values are equal, whatever the basis.
    """
    pivots: list[tuple[int, int] | None] = [None] * ncols
    for one, two in sorted(rows, key=lambda r: r[0] | r[1], reverse=True):
        while s := one | two:
            low = s & -s
            c = low.bit_length() - 1
            p = pivots[c]
            if p is None:
                pivots[c] = (two, one) if two & low else (one, two)
                break
            if one & low:  # subtract p
                p1, p2 = p
            else:  # add p: subtract its negation
                p2, p1 = p
            t = (one | p1) ^ (two | p2)
            one, two = (two | p1) ^ t, (one | p2) ^ t
    ones, twos, k = [0] * ncols, [0] * ncols, 0
    for c, p in enumerate(pivots):
        if p is None:
            ones[c], k = 1 << k, k + 1
    for c in range(ncols - 1, -1, -1):
        if (p := pivots[c]) is None:
            continue
        p1, p2 = p
        one = two = 0
        ks = (p1 | p2) ^ 1 << c
        while ks:
            low = ks & -ks
            ks ^= low
            i = low.bit_length() - 1
            if p1 & low:  # subtract v[i]
                b1, b2 = ones[i], twos[i]
            else:  # subtract 2 * v[i], that is, add v[i]
                b2, b1 = ones[i], twos[i]
            t = (one | b1) ^ (two | b2)
            one, two = (two | b1) ^ t, (one | b2) ^ t
        ones[c], twos[c] = one, two
    return ncols - k, list(zip(ones, twos))


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

