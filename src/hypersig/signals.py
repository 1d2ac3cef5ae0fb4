"""Signal spaces of uniform hypergraphs under linear maps.

A signal assigns a rational value to every (axis, vertex) pair. Given a
linear map ``T`` on axis space, a signal is admissible when ``T`` kills
the value tuple read off every edge in every arrangement. For an edge and
a map row ``w``, every arrangement constraint is a permutation sum of the
matrix ``A[a][j] = w_a * s_a(e[j])``, so all of them hold iff ``A`` passes
the sum-matrix test (Birkhoff): a zero trace, and
``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` for all ``a, j >= 1``. The
verifier decides admissibility by this test.

The admissible signals form a vector space, and the map decides its
shape in the same three cases as fusion. A zero column's axis is free;
under it, and under an engaged map of rank at least 2, every other axis
is constant on each component, with values in the map's kernel: a closed
form. Under an engaged map of rank 1 it is the coordinate-sum map's
space scaled axis-wise, solved on ``n + (ell-1) * kappa`` unknowns for
``kappa`` components instead of ``ell * n``. A vertex in no edge is free
on every axis. On connected input fusion is discrete, one class, or the
coordinate-sum map's fusion in these cases; only rank 1 solves a system,
and every basis and fusion signal is re-verified.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat
from math import gcd, lcm
from operator import add, eq, mul, ne, or_, sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedError, DomainError, FormatError, HypersigError, NotEngagedError
from .hypergraph import (
    MIN_ARITY,
    Hypergraph,
    Partition,
    _component_roots,
    _encode,
    _integer,
    _read_json,
    _sequence,
    _write_texts,
    is_connected,
    quotient,
)
from .linalg import _forward_echelon, _gf3_kernel, _integral_rows, _kernel_basis, _kernel_vector

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearMap:
    """Dense ``r x ell`` rational matrix acting on axis space, held as its
    ``r`` rows of ``ell`` entries, ``r, ell >= 1``, checked and kept as
    ``Fraction`` values by :func:`_fraction_rows`."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        entries = _fraction_rows(self.entries, "map", "entry", "entries", nonempty=True)
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def ell(self) -> int:
        return len(self.entries[0])

    def column(self, a: int) -> tuple[Fraction, ...]:
        """Image of the ``a``-th standard basis vector of axis space."""
        return tuple(row[a] for row in self.entries)


def _fraction_rows(
    rows: Iterable[Iterable[Fraction | int]], table: str, item: str, items: str, nonempty=False
) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of ``int`` (not ``bool``) and ``Fraction`` values, all of row
    0's length, as ``Fraction`` tuples: the one shape and value rule of
    :class:`LinearMap` and :class:`Signal`. The rows, and each row of
    ``items``, are read by :func:`_sequence`. Any other value raises
    ``DomainError`` naming the ``table``'s ``item``, its ``[row][col]``
    and its type (a ``float`` would enter as its binary fraction, a string
    as whatever it parses to), and so do a ragged row and, if
    ``nonempty``, no rows or an empty row 0. A row of ``Fraction`` values
    only, as a parsed signal's, is kept."""
    out = []
    for i, row in enumerate(_sequence(f"{table} rows", rows, "rows")):
        row = _sequence(f"{table} row {i}", row, items)
        if set(map(type, row)) != {Fraction}:
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                    kind = type(v).__name__
                    raise DomainError(
                        f"{table} {item} [{i}][{j}] has type {kind}; expected int or Fraction"
                    )
            row = tuple(map(Fraction, row))
        if out and len(row) != len(out[0]):
            raise DomainError(f"{table} row {i} has {len(row)} values, row 0 {len(out[0])}")
        out.append(row)
    if nonempty and not (out and out[0]):
        raise DomainError(f"{table} row 0 is empty" if out else f"{table} has no rows")
    return tuple(out)


def universal_map(ell: int) -> LinearMap:
    """The coordinate-sum map: 1 x ell all-ones matrix."""
    return LinearMap([[1] * _integer("arity", ell, MIN_ARITY)])


def centroid_map(ell: int) -> LinearMap:
    """The consecutive-difference map: (ell-1) x ell matrix with rows
    (..., 1, -1, ...); its kernel is the line of constant vectors."""
    rows = []
    for i in range(_integer("arity", ell, MIN_ARITY) - 1):
        row = [0] * ell
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    return LinearMap(rows)


def is_engaged(t: LinearMap) -> bool:
    """True iff no column of the map is zero, i.e. every axis is
    constrained."""
    return not _zero_columns(t.entries)


def _zero_columns(rows: Sequence[Sequence[Fraction | int]]) -> list[int]:
    """Zero columns of a map given by its rows: entries or integer rows."""
    return [a for a, col in enumerate(zip(*rows)) if not any(col)]


@dataclass(frozen=True)
class Signal:
    """Rational value table of shape ell x n_vertices; ``values[a][x]`` is
    the signal value of vertex ``x`` on axis ``a``, checked and kept as
    ``Fraction`` values by :func:`_fraction_rows`: every row has row 0's
    length."""

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _fraction_rows(self.values, "signal", "value", "values"))

    @property
    def ell(self) -> int:
        return len(self.values)

    @property
    def n_vertices(self) -> int:
        return len(self.values[0]) if self.values else 0


def _check_arity(h: Hypergraph, t: LinearMap) -> None:
    if t.ell != h.ell:
        raise DomainError(f"map arity {t.ell} != hypergraph arity {h.ell}")


def _integer_table(h: Hypergraph, s: Signal) -> tuple[list[list[int]], int]:
    """``s`` as an integer table ``table[a][x]`` and the lcm ``d`` of its
    value denominators, ``s`` being ``table / d``; a signal whose shape
    is not ``h``'s raises ``DomainError``."""
    if s.ell != h.ell or s.n_vertices != h.n_vertices:
        shape = f"{s.ell}x{s.n_vertices}"
        raise DomainError(f"signal shape {shape} does not match hypergraph {h.ell}x{h.n_vertices}")
    d = lcm(*{v.denominator for row in s.values for v in row})
    return [[v.numerator * (d // v.denominator) for v in row] for row in s.values], d


def find_violation(
    h: Hypergraph, t: LinearMap, s: Signal
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First (edge, arrangement, map row) whose constraint the signal
    violates, in that order, or None if the signal is admissible. Exact:
    every edge and map row is checked, no sampling.

    Each (edge, map row) is decided by the sum-matrix test: with
    ``A[a][j] = w_a * s_a(e[j])``, every arrangement constraint is a
    permutation sum of ``A``, and the permutation matrices span exactly
    the matrices whose row and column sums are all equal (Birkhoff), so
    every one holds iff the trace of ``A`` is zero and
    ``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` for all ``a, j >= 1``. In
    column form, with ``V_a = w_a * s_a``: the trace ``sum_a V_a[e[a]]``
    is zero, and ``D_a = V_a - V_0`` is constant on the edge for every
    ``a >= 1``; :func:`_violation` checks both over the edge columns.
    Only the first edge that fails reaches the prefix search of
    :func:`_first_witness`, which locates the first violated
    (arrangement, map row) in the lexicographic order of the edge's
    distinct arrangements.

    Integer only: the signal is scaled by the lcm of all its value
    denominators and each map row by the lcm of its own, which keeps
    every constraint's zero set, and :func:`_violation` checks these.
    """
    _check_arity(h, t)
    return _violation(h, _integral_rows(t.entries), _integer_table(h, s)[0])


def _violation(
    h: Hypergraph, maps: Sequence[Sequence[int]], values: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """:func:`find_violation` on an integer signal table ``values[a][x]``,
    with the map given by its integer rows.

    The edges are read as their ``ell`` columns ``col_j``, the ``j``-th
    vertex of every edge, and each map row ``w`` is decided in C-level
    passes over them. With ``V_a = w_a * s_a``, the test
    ``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` says that
    ``D_a = V_a - V_0`` takes one value on the edge, so an edge holds iff
    its trace ``sum_a V_a[e[a]]`` is zero and every ``D_a``, ``a >= 1``,
    is constant on it: one pass for the trace, and one per pair
    ``a, j >= 1`` comparing ``D_a`` at ``col_j`` with ``D_a`` at
    ``col_0`` (none for a ``D_a`` constant on every vertex). Only the
    first failing edge, over every pass and map row, reaches the prefix
    search of :func:`_first_witness`.
    """
    edges = h.edges
    if not edges:
        return None
    col0, *cols = zip(*edges)
    first = len(edges)  # the first failing edge found so far, or len(edges)
    for w in maps:
        v0, *vs = (s if c == 1 else list(map(c.__mul__, s)) for c, s in zip(w, values))
        trace = map(v0.__getitem__, col0)
        for va, col in zip(vs, cols):
            trace = map(add, trace, map(va.__getitem__, col))
        checks = [trace]
        for va in vs:
            d = list(map(sub, va, v0))
            if d.count(d[0]) < len(d):
                at0 = list(map(d.__getitem__, col0))
                checks += (map(ne, map(d.__getitem__, col), at0) for col in cols)
        for check in checks:  # a check is truthy at each edge it fails
            first = next(compress(count(), islice(check, first)), first)
    if first == len(edges):
        return None
    e = edges[first]
    return (e, *_first_witness(e, [list(zip(w, values)) for w in maps]))


def _first_witness(
    e: tuple[int, ...], terms: Sequence[Sequence[tuple[int, Sequence[int]]]]
) -> tuple[tuple[int, ...], int]:
    """The lexicographically first distinct arrangement of the failing
    edge ``e`` that violates a map row, and the first row it violates.

    Depth-first over prefixes in lexicographic order, skipping a prefix
    when every completion holds: for each map row, the block of ``A`` left
    to fill (the axes after the prefix, the vertices not in it) passes the
    sum-matrix test, so every completion gives the same value, and one
    completion gives zero. A prefix that is not skipped has a violating
    completion, so the search never backtracks and reaches the first
    violating arrangement after at most ``ell^2`` prefix tests, instead of
    enumerating up to ``ell!`` arrangements.
    """

    def holds(prefix: tuple[int, ...], rest: tuple[int, ...]) -> bool:
        k = len(prefix)
        for row in terms:
            if sum(c * col[x] for (c, col), x in zip(row, prefix + rest)):
                return False
            if rest:
                (c0, v0), x0 = row[k], rest[0]
                if any(
                    c * (col[x] - col[x0]) != c0 * (v0[x] - v0[x0])
                    for x in rest[1:]
                    for c, col in row[k + 1 :]
                ):
                    return False
        return True

    prefix, rest = (), e
    while rest:  # rest stays sorted, so its distinct entries come in order
        children = (
            (prefix + (x,), rest[:i] + rest[i + 1 :])
            for i, x in enumerate(rest)
            if rest.index(x) == i
        )
        prefix, rest = next(child for child in children if not holds(*child))
    return prefix, next(
        i for i, row in enumerate(terms) if sum(c * col[x] for (c, col), x in zip(row, prefix))
    )


def verify_signal(h: Hypergraph, t: LinearMap, s: Signal) -> bool:
    """Exact admissibility check of a signal against every edge and every
    distinct arrangement."""
    return find_violation(h, t, s) is None


def signal_space(h: Hypergraph, t: LinearMap) -> tuple[Signal, ...]:
    """The space of admissible signals of ``h`` under ``t`` as its
    canonical basis. With the (axis, vertex) pairs in axis-major order,
    each signal is 1 at its last nonzero pair, its pivot, where every
    other signal is 0, and the pivots ascend. The basis is solved and
    re-verified in integers by :func:`_verified_basis`; :func:`_space`
    then divides each by its value at the pivot, which keeps every
    constraint's zero set, so the emitted signals are the verified ones.
    """
    return _space(_verified_basis(h, t)[0])


# A basis as integer tables: each vector its table ``table[a][x]`` and its
# value ``d`` at the pivot, the signal ``table / d``.
_Basis = list[tuple[list[list[int]], int]]


def _verified_basis(h: Hypergraph, t: LinearMap) -> tuple[_Basis, int]:
    """The canonical basis of :func:`signal_space` under ``t`` as integer
    tables, and the number of constant signals, the dimension of
    :func:`_map_kernel`. The arity is checked, and the map converted to
    integer rows and its kernel eliminated, each once. The map decides
    the case, as it decides fusion: an engaged map of rank 1 solves one
    forward elimination in :func:`_rank_one_basis`, every other map takes
    the closed form of :func:`_closed_form_basis`; both read their kernels
    off :func:`hypersig.linalg._kernel_basis`. Every table is re-verified
    exactly as it is built, a failure an internal error that raises.
    """
    _check_arity(h, t)
    maps = _integral_rows(t.entries)
    kernel, mu = _map_kernel(maps), _rank_one_lift(maps)
    basis = _closed_form_basis(h, maps, kernel) if mu is None else _rank_one_basis(h, mu)
    _check_basis(h, maps, (table for table, _ in basis))
    return basis, len(kernel)


def _space(basis: _Basis) -> tuple[Signal, ...]:
    """The signals of a basis of integer tables, each value ``y`` of a
    table expanded to ``Fraction(y, d)``: one per distinct ``y``, and one
    shared zero."""
    signals = []
    for table, d in basis:
        fractions = {y: Fraction(y, d) for y in set(chain.from_iterable(table))}
        fractions[0] = _ZERO  # one shared zero
        signals.append(Signal([tuple(map(fractions.__getitem__, row)) for row in table]))
    return tuple(signals)


def _map_kernel(maps: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """The canonical kernel basis of a map given by its integer rows, as
    :func:`hypersig.linalg._kernel_basis` gives it: ``(f, lam)``, ``lam``
    positive at its free column ``f`` and 0 after it."""
    rows = [tuple((a, y) for a, y in enumerate(r) if y) for r in maps]
    return _kernel_basis(rows, len(maps[0]))


def _rank_one_lift(maps: Sequence[Sequence[int]]) -> list[int] | None:
    """The lift ``mu_a = lcm(v) / v_a`` of a map given by its integer rows
    when it is engaged of rank 1: its first nonzero row ``v`` has no zero
    entry and every row is a multiple of ``v``. None under a zero column
    or rank >= 2. Axis-wise, ``mu`` rescales U-signals to the map's."""
    v = next((row for row in maps if any(row)), None)
    if v and all(v) and all(r[a] * v[0] == r[0] * v[a] for r in maps for a in range(len(v))):
        return [lcm(*v) // x for x in v]
    return None


def _ranked_components(h: Hypergraph) -> tuple[list[int], list[int]]:
    """The rank of each vertex's component and the largest vertex of each
    component, components ranked by their largest vertex."""
    roots = _component_roots(h.n_vertices, h.edges)
    top = {r: x for x, r in enumerate(roots)}
    tops = sorted(top.values())
    rank = {roots[x]: k for k, x in enumerate(tops)}
    return [rank[r] for r in roots], tops


def _rank_one_basis(h: Hypergraph, mu: Sequence[int]) -> _Basis:
    """Canonical basis of the signal space of an engaged map of rank 1,
    every row a multiple of ``v``, from its :func:`_rank_one_lift` ``mu``,
    solved on ``n + (ell-1) * kappa`` unknowns instead of ``ell * n``
    (``kappa`` components, a vertex in no edge its own).

    A signal ``s`` is admissible iff ``v_a * s_a`` is under the
    coordinate-sum map, where ``u_a - u_{ell-1}`` is constant on every
    component. So with ``g = u_{ell-1}`` and ``h[a][k]`` the value of
    ``u_a`` at the largest vertex ``top_k`` of component ``k``,
    ``s_a(x) = mu_a * (g(x) + h[a][k(x)] - g(top_k(x)))`` for ``a < ell-1``
    and ``s_{ell-1} = mu_{ell-1} * g``. Column ``a * kappa + k`` holds
    ``h[a][k]`` and column ``(ell-1) * kappa + x`` holds ``g(x)``, and an
    edge in component ``k`` gives one trace row: 1 at each ``h[a][k]``,
    the edge's vertex counts at ``g``, and ``-(ell-1)`` added at
    ``g(top_k)``.

    Each unknown is, over ``mu``, the expanded signal at one coordinate:
    ``h[a][k]`` at ``(a, top_k)`` and ``g(x)`` at ``(ell-1, x)``, in the
    same order as the columns, and a signal's last nonzero coordinate is
    the image of its last nonzero unknown. So the kernel vectors of
    :func:`_kernel_basis` expand to the canonical basis as they are, one
    table row per axis, each with its value at the pivot.
    """
    n, ell = h.n_vertices, h.ell
    comp, tops = _ranked_components(h)
    kappa = len(tops)
    base = (ell - 1) * kappa
    rows: dict[tuple[tuple[int, int], ...], None] = {}
    for e in h.edges:  # sorted and within the component, so columns ascend
        k = comp[e[0]]
        row = dict.fromkeys(range(k, base, kappa), 1)
        for x in e:
            row[base + x] = row.get(base + x, 0) + 1
        row[base + tops[k]] = row.get(base + tops[k], 0) + 1 - ell
        rows[tuple((c, y) for c, y in row.items() if y)] = None
    vectors = []
    for f, u in _kernel_basis(rows, base + n):
        g = u[base:]
        table = []
        for a, m in enumerate(mu[:-1]):
            off = [u[a * kappa + k] - g[x] for k, x in enumerate(tops)]
            table.append([m * (y + off[k]) for y, k in zip(g, comp)])
        table.append([mu[-1] * y for y in g])
        vectors.append((table, mu[f // kappa if f < base else ell - 1] * u[f]))
    return vectors


def _closed_form_basis(
    h: Hypergraph, maps: list[list[int]], kernel: list[tuple[int, list[int]]]
) -> _Basis:
    """Canonical basis of the signal space of a map with a zero column or
    an engaged map of rank >= 2, given by its integer rows and its
    :func:`_map_kernel`, in closed form: no elimination but of the map
    itself, for its kernel.

    An axis whose column is zero is free. Every row ``r`` is zero there, so
    the minor rows ``r_b * (s_b(y) - s_b(x)) = 0`` make every other axis
    constant on each edge, hence on each component. Under rank >= 2 every
    axis is, as fusion is one class (:func:`hypersig.frames.fusion`). The
    trace rows ask that these constants lie in the kernel of ``t``. A
    vertex in no edge is free on every axis. So the basis is the unit
    vectors at ``(z, x)`` for every zero column ``z``, at ``(a, x)`` for
    every vertex ``x`` in no edge, and for each component with an edge and
    each canonical kernel vector ``lam`` of ``t`` that is zero on the zero
    columns, ``lam_a`` at ``(a, x)`` for every vertex ``x`` of the
    component. Ordered by their last nonzero coordinate, which for
    ``lam`` is ``(f, largest vertex of the component)``, ``f`` the free
    column of ``lam``; keyed by ``(a, x)``, they sort in that order. Each
    ``lam`` is kept in integers, ``lam_f`` at the pivot.
    """
    n, ell = h.n_vertices, h.ell
    zero = _zero_columns(maps)
    covered = {x for e in h.edges for x in e}
    units = {(z, x) for z in zero for x in range(n)}
    units |= {(a, x) for x in set(range(n)) - covered for a in range(ell)}
    by_pivot = {p: {p: 1} for p in units}
    comp, tops = _ranked_components(h)
    members: dict[int, list[int]] = {}
    for x in sorted(covered):
        members.setdefault(comp[x], []).append(x)
    for f, lam in kernel:
        if f not in zero:  # a zero column is free, so the other lam are 0 there
            for k, xs in members.items():
                by_pivot[f, tops[k]] = {(a, x): y for a, y in enumerate(lam) if y for x in xs}
    vectors = []
    for p, entries in sorted(by_pivot.items()):
        table = [[0] * n for _ in range(ell)]
        for (a, x), y in entries.items():
            table[a][x] = y
        vectors.append((table, entries[p]))
    return vectors


def _check_basis(h: Hypergraph, maps: list[list[int]], tables: Iterable[list[list[int]]]) -> None:
    """Re-verify computed signals exactly, each given as the integer table
    ``values[a][x]`` it is built from, by the sum-matrix test of
    :func:`find_violation`, with the map given by its integer rows; a
    failure is an internal error and raises."""
    for values in tables:
        witness = _violation(h, maps, values)
        if witness is not None:
            raise HypersigError(f"internal error: basis signal fails at {witness}")


def constant_space(t: LinearMap, n_vertices: int) -> tuple[Signal, ...]:
    """Signals that are constant on every axis, with axis values drawn
    from the kernel of the map, as a basis in :func:`signal_space`'s
    canonical form. Admissible for every hypergraph of matching arity."""
    _integer("vertex count", n_vertices, 1)
    kernel = _map_kernel(_integral_rows(t.entries))
    return _space([([[y] * n_vertices for y in lam], lam[f]) for f, lam in kernel])


def component_count_via_C(h: Hypergraph) -> int:
    """Number of connected components, read off as the dimension of the
    signal space under the consecutive-difference map, the length of its
    :func:`_verified_basis`. Its rank is ``ell - 1 >= 2``, so the closed
    form builds that basis from the union-find components, re-verified by
    :func:`_check_basis`; the full-assembly oracle test checks the count
    independently."""
    return len(_verified_basis(h, centroid_map(h.ell))[0])


def _search_functional(t: LinearMap) -> tuple[int, ...]:
    """Smallest integer vector w (grid enumeration of positive integers by
    increasing height, lexicographic within a height) with w . T(a) != 0
    for every axis a of an engaged map. Exists because each bad set is a
    hyperplane.

    Depth-first over prefixes in that order. A column's value is fixed
    once the prefix reaches its last nonzero entry, so a prefix that makes
    one zero there has no good completion and is skipped: the centroid
    map's w takes about two prefix tests per coordinate, where a plain
    enumeration of the grid passes more than ``2^(ell-3)`` points. A
    complete prefix at height ``H`` has height ``H``: one below is good at
    a lower height, which would have returned it.
    """
    r, ends = t.r, [[] for _ in range(t.r)]
    # each column scaled to integers alone keeps the zero set of w . T(a)
    for col in _integral_rows(map(t.column, range(t.ell))):
        ends[max(i for i, c in enumerate(col) if c)].append(col)
    height = 1
    while True:
        w, i = [0] * r, 0
        while i >= 0:
            if i == r:
                return tuple(w)
            if w[i] == height:
                w[i] = 0
                i -= 1
            else:
                w[i] += 1
                if all(sum(x * c for x, c in zip(w, col)) for col in ends[i]):
                    i += 1
        height += 1


def embed_to_universal(h: Hypergraph, t: LinearMap, s: Signal) -> Signal:
    """Rescale an admissible signal for ``t`` into an admissible signal for
    the coordinate-sum map, multiplying axis ``a`` by ``w . T(a)`` for a
    deterministically chosen integer vector ``w``.

    Requires ``t`` to be engaged; a zero column would leave the axis
    unconstrained and the rescaling undefined.
    """
    if zero := _zero_columns(t.entries):
        raise NotEngagedError(zero[0])
    if not verify_signal(h, t, s):
        raise DomainError("signal is not admissible for the given map")
    w = _search_functional(t)
    scales = [sum(map(mul, w, t.column(a))) for a in range(t.ell)]
    out = Signal([[m * v for v in row] for m, row in zip(scales, s.values)])
    if not verify_signal(h, universal_map(h.ell), out):
        raise HypersigError("internal error: embedded signal fails verification")
    return out


def generating_signal(h: Hypergraph) -> Signal:
    """Single admissible signal for the coordinate-sum map whose level
    sets, on every axis, realize the full fusion partition: the certified,
    re-verified signal of :func:`_certified_signal`."""
    return Signal(_certified_signal(h, universal_map(h.ell))[0])


# Seed of the draws of kernel vectors. The certified partition does not
# depend on it; only the number of draws does.
_DRAW_SEED = 20251031

# A draw fails only when some separable pair of the n vertices collides,
# with probability below n^2 / 2^33 for 32-bit free values.
_MAX_DRAWS = 64


def _draw(rng: random.Random, k: int) -> list[int]:
    """Free values of one kernel vector: ``k`` seeded 32-bit integers."""
    return [rng.getrandbits(32) for _ in range(k)]


def _certified_signal(h: Hypergraph, t: LinearMap) -> tuple[list[list[int]], Hypergraph, Partition]:
    """One re-verified admissible signal of connected ``h`` under ``t``, as
    its integer table ``values[a][x]``, the frame, built once, and the
    fusion partition, which the signal's level sets, on the axes together,
    realize.

    The map decides the case (:func:`hypersig.frames.fusion` says why): a
    zero column gives the discrete partition, and the vertex index on that
    axis; an engaged map of rank >= 2 one class, and the zero signal; an
    engaged map of rank 1, the fusion of :func:`_universal_fusion`, and
    its signal ``u_0 = f + C``, ``u_a = f`` multiplied on each axis by
    the map's :func:`_rank_one_lift`. One :func:`_check_basis` call
    re-verifies the signal under every map; a failure is an internal
    error.
    """
    if not is_connected(h):
        raise DisconnectedError("fusion requires a connected hypergraph")
    _check_arity(h, t)
    n, ell = h.n_vertices, h.ell
    maps = _integral_rows(t.entries)
    mu = _rank_one_lift(maps)
    if mu is not None:
        f, c, g, part = _universal_fusion(h)
        u = [[x + c for x in f]] + [f] * (ell - 1)
        values = [row if m == 1 else [x * m for x in row] for m, row in zip(mu, u)]
    else:
        zero = _zero_columns(maps)
        values = [list(range(n)) if zero and a == zero[0] else [0] * n for a in range(ell)]
        part = Partition.from_keys(range(n) if zero else [0] * n)
        g = quotient(h, part)
    _check_basis(h, maps, [values])
    return values, g, part


def _edge_sum_columns(n: int, edges: Sequence) -> list[int]:
    """Each vertex's column in the edge-sum system of ``edges`` on ``n``
    vertices: in order of increasing degree, ties by id; column ``n`` is ``C``."""
    degree = Counter(chain.from_iterable(edges))
    col = [0] * n
    for i, x in enumerate(sorted(range(n), key=degree.__getitem__)):
        col[x] = i
    return col


def _edge_sum_echelon(n: int, edges: Sequence) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Forward echelon of the edge-sum system of ``edges`` on ``n``
    vertices, and each vertex's column (:func:`_edge_sum_columns`): one
    row per edge, distinct as the edges are, the number of the edge's
    vertices at each column (counted only where one repeats) and 1 at
    column ``n``. :func:`_edge_sum_peel` calls it on a 2-core only."""
    col = _edge_sum_columns(n, edges)
    rows = []
    for e in edges:
        image = sorted(map(col.__getitem__, e))
        counts = zip(image, repeat(1)) if len(set(e)) == len(e) else Counter(image).items()
        rows.append((*counts, (n, 1)))
    return _forward_echelon(rows), col


# A peeled edge-sum system (:func:`_edge_sum_peel`): the peel order as
# (row, private vertex) pairs, the 2-core's forward echelon, its columns.
_Peeled = tuple[list[tuple[int, int]], dict[int, dict[int, int]], list[int]]


def _edge_sum_peel(h: Hypergraph) -> _Peeled:
    """The edge-sum system of ``h``, peeled before it is eliminated: the
    peel order as ``(row, private vertex)`` pairs, and the forward echelon
    and columns of the 2-core left (:func:`_edge_sum_echelon`). Its rank
    is ``len(order) + len(echelon)``.

    A row that holds a vertex no other row left holds, its private
    vertex, is independent of the others: it adds 1 to the rank and
    leaves, which may leave another vertex in one row. No row peeled
    after it and no core row holds a private vertex, so the rows solve
    theirs in reverse peel order (:func:`_solve_peeled`). A private vertex that occurs
    once in its row is preferred, as solving it then needs no division.
    An empty core is not eliminated at all, and its columns are the
    vertex ids. Each vertex keeps the number of rows left that hold it
    and the XOR of their indices, which is that row's index when the
    number is 1.
    """
    edges, ell = h.edges, h.ell
    held, xor = [0] * h.n_vertices, [0] * h.n_vertices
    rows = list(map(set, edges))
    for i, row in enumerate(rows):
        for x in row:
            held[x] += 1
            xor[x] ^= i
    leaves = [x for x, k in enumerate(held) if k == 1]
    repeated = []  # leaves that repeat in their row, taken when no other is left
    left = [True] * len(edges)
    order = []
    while leaves or repeated:
        late = not leaves
        x = (leaves or repeated).pop()
        if held[x] != 1:  # its row left through another vertex
            continue
        i = xor[x]
        if not late and len(rows[i]) < ell and edges[i].count(x) > 1:
            repeated.append(x)
            continue
        order.append((i, x))
        left[i] = False
        for y in rows[i]:
            held[y] -= 1
            xor[y] ^= i
            if held[y] == 1:
                leaves.append(y)
    if len(order) == len(edges):
        return order, {}, list(range(h.n_vertices))
    return (order, *_edge_sum_echelon(h.n_vertices, list(compress(edges, left))))


def _edge_sum_gf3_rows(h: Hypergraph, col: list[int]) -> list[tuple[int, int]]:
    """The rows of :func:`_edge_sum_echelon` modulo 3, bitsliced for
    :func:`_gf3_kernel`: each edge's columns with count 1 and with count
    2 modulo 3, ``C`` among the first.

    Built from the edge columns in C-level passes: an edge's columns ORed
    together are its row when its vertices are distinct. An edge is
    sorted, so a repeated vertex sits in two adjacent columns, and only
    those edges are counted occurrence by occurrence."""
    if not h.edges:
        return []
    bit, last = [1 << c for c in col], 1 << h.n_vertices
    first, *cols = zip(*h.edges)
    ones = map(or_, repeat(last), map(bit.__getitem__, first))
    repeats = repeat(False)
    for left, right in zip((first, *cols), cols):
        ones = map(or_, ones, map(bit.__getitem__, right))
        repeats = map(or_, repeats, map(eq, left, right))
    rows = list(zip(ones, repeat(0)))
    for i in compress(count(), repeats):
        one, two = last, 0
        for b in map(bit.__getitem__, h.edges[i]):  # count each occurrence: 0 -> 1 -> 2 -> 0
            if one & b:
                one, two = one ^ b, two | b
            elif two & b:
                two ^= b
            else:
                one |= b
        rows[i] = (one, two)
    return rows


def _universal_fusion(h: Hypergraph) -> tuple[list[int], int, Hypergraph, Partition]:
    """Fusion of connected ``h`` under the coordinate-sum map, certified on
    its frame: one kernel vector ``(f, C)`` of the edge-sum system, the
    frame, and the partition, the level sets of ``f``; the signal
    ``s_0 = f + C``, ``s_a = f`` (a >= 1) realizes it under ``U``. Two
    routes propose a partition, :func:`_certified_frame` certifies it,
    and one :func:`_certified_draw` ends both:

    - With at least as many edges as vertices, where fusion collapses,
      :func:`_frame_fusion` proposes the candidate modulo 3 and its
      certified frame, the fusion's. That frame is stable, so the draw on
      it certifies only a discrete partition: the frame stays the
      candidate's, and the vector, lifted through it, has its classes.
    - Otherwise, or when :func:`_frame_fusion` declines, the draw runs on
      ``h`` peeled (:func:`_edge_sum_peel`). With fewer edges than
      vertices, fusion is near discrete, the frame nearly ``h``, the pass
      modulo 3 pure overhead, and the 2-core often empty: then nothing is
      eliminated exactly.

    Draws that run out, and a lift that fails re-verification in
    :func:`_certified_signal`, take a wrong elimination or quotient, and
    raise an internal error on either route.

    Nothing here needs ``h`` connected: met with the components, the level
    sets of ``f`` are each component's fusion, as a constant vector solves
    every component's system for any ``C``; ``f`` alone may merge them.
    """
    found = _frame_fusion(h) if h.n_edges >= h.n_vertices else None
    if found is None:
        return _certified_draw(h, _edge_sum_peel(h))
    p, g, peeled = found
    f, c, frame, _ = _certified_draw(g, peeled)
    return [f[x] for x in p.class_of], c, frame, p


def _certified_frame(
    h: Hypergraph, part: Partition, nullity: int
) -> tuple[Hypergraph, _Peeled] | None:
    """The certificate of fusion under ``U``: the frame ``g = h/P`` of a
    candidate ``P`` and its peeled edge-sum system (:func:`_edge_sum_peel`)
    when its nullity, ``g``'s columns less its peeled rows and 2-core
    pivots, equals the bound ``nullity``; else None.

    The edge-sum system of ``g`` is that of ``h`` with the columns of each
    block summed, each distinct row once, so its kernel vectors lift
    injectively to exactly those of ``h`` constant on the blocks:
    nullity(g) <= nullity(h), with equality iff every kernel vector is
    constant on the blocks, iff ``P`` refines the fusion. The bound is
    one of two:

    - nullity(h), for the level sets of a drawn kernel vector
      (:func:`_certified_draw`). They separate no fused pair, so if they
      refine the fusion, they are the fusion.
    - nullity_3(h), for the kernel modulo 3 (:func:`_frame_fusion`). The
      rank modulo a prime is at most the rational one, so
      nullity(g) <= nullity(h) <= nullity_3(h): equality makes ``P``
      refine the fusion without an exact elimination of ``h``, and gives
      rank_3 = rank_Q. Then ``P`` is the fusion: the integer kernel of
      ``h`` is saturated, so its reduction modulo 3 has dimension
      nullity(h) = nullity_3(h) and is the whole kernel modulo 3, and a
      pair no rational kernel vector separates is not separated modulo 3
      either.
    """
    g = quotient(h, part)
    order, echelon, _ = peeled = _edge_sum_peel(g)
    if g.n_vertices + 1 - len(order) - len(echelon) == nullity:
        return g, peeled
    return None


def _frame_fusion(h: Hypergraph) -> tuple[Partition, Hypergraph, _Peeled] | None:
    """The candidate ``P`` of :func:`_universal_fusion`, the vertices
    grouped by their values over the kernel of the edge-sum system modulo
    3 (:func:`_gf3_kernel`), with the frame and its peeled edge-sum system
    that :func:`_certified_frame` certifies against nullity_3(h). None,
    decided before any draw, for a discrete candidate (its frame is
    ``h``), one too coarse, or rank_3 < rank_Q (in both, the nullities
    differ).
    """
    n, col = h.n_vertices, _edge_sum_columns(h.n_vertices, h.edges)
    rank, packed = _gf3_kernel(_edge_sum_gf3_rows(h, col), n + 1)
    p = Partition.from_keys([packed[c] for c in col])
    found = None if p.is_discrete() else _certified_frame(h, p, n + 1 - rank)
    return found and (p, *found)


def _certified_draw(h: Hypergraph, peeled: _Peeled) -> tuple[list[int], int, Hypergraph, Partition]:
    """The first certified draw of fusion on ``h`` under the coordinate-sum
    map, from its peeled edge-sum system (:func:`_edge_sum_peel`): a
    kernel vector ``(f, C)``, the frame, and the level sets of ``f``,
    accepted when they are discrete (the frame is ``h``) or
    :func:`_certified_frame` certifies them against ``h``'s nullity.

    Every column that is neither a pivot of the 2-core nor a private
    vertex takes a seeded random 32-bit free value. The core is
    back-substituted by :func:`_kernel_vector`; no core row holds a
    private vertex, so each is then solved from its own row, in reverse
    peel order (:func:`_solve_peeled`). The free columns number exactly
    the nullity, and the solve is linear and reads each free value back
    at its column, so free values map bijectively onto kernel vectors,
    each scaled by a positive integer. A separable pair, which some
    kernel vector separates, thus collides only on a hyperplane of the
    draws.

    A rejected candidate is replaced by a fresh draw, never merged with
    it, so the returned vector alone realizes the partition, and the
    partition does not depend on the draws. ``_MAX_DRAWS`` rejections are
    an internal error and raise.
    """
    order, echelon, col = peeled
    n = h.n_vertices
    private = {col[x] for _, x in order}
    free_desc = [c for c in range(n, -1, -1) if c not in echelon and c not in private]
    nullity = len(free_desc)
    rng = random.Random(_DRAW_SEED)
    for _ in range(_MAX_DRAWS):
        v = _kernel_vector(echelon, n + 1, dict(zip(free_desc, _draw(rng, nullity))))
        f, c = _solve_peeled(h.edges, order, [v[k] for k in col], v[-1])
        part = Partition.from_keys(f)
        if part.is_discrete():
            return f, c, h, part
        found = _certified_frame(h, part, nullity)
        if found is not None:
            return f, c, found[0], part
    raise HypersigError(f"internal error: no fusion certified in {_MAX_DRAWS} draws")


def _solve_peeled(
    edges: Sequence[tuple[int, ...]], order: list[tuple[int, int]], f: list[int], c: int
) -> tuple[list[int], int]:
    """The kernel vector ``(f, C)`` of the edge-sum system with each
    private vertex of ``order`` solved from its row, in reverse peel
    order, from values ``f`` that solve the 2-core and are 0 at the
    private vertices. A row holds its own private vertex and maybe those
    of rows peeled after it, which are solved before it, and never one
    of a row peeled before it: so each row has one unknown. A private
    vertex ``x`` that occurs ``k > 1`` times in its row may not divide:
    the vector is then scaled by the factor missing, once at the end.
    Until then each solved value is kept at the scale of its solve
    (``at[x]``, 1 if absent) and converted where a row reads it, so no
    row rescales the whole vector."""
    scale, at = 1, {}
    for i, x in reversed(order):
        e = edges[i]
        if scale == 1:
            s = c + sum(map(f.__getitem__, e))  # f[x] is still 0
        else:
            s = c * scale + sum(f[y] * (scale // at.get(y, 1)) for y in e)
        k = e.count(x)
        if k > 1 and s % k:
            m = k // gcd(s, k)
            scale, s = scale * m, s * m
        f[x] = -s // k
        if scale > 1:
            at[x] = scale
    if scale > 1:
        f = [y * (scale // at.get(x, 1)) for x, y in enumerate(f)]
    return f, c * scale


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# The signal and linear map files are stated once, in README's "File
# formats" section.


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(v) -> Fraction:
    """A JSON integer (not a bool), or a string ``"3"``, ``"-2/5"``
    matching ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise FormatError(f"invalid rational {v!r}: zero denominator") from None
        except ValueError:  # more digits than int() converts
            raise FormatError(f"invalid rational {v!r}: too many digits") from None
    raise FormatError(f"invalid rational {v!r}: expected an integer or a string like \"-2/5\"")


def _basis_chunks(h: Hypergraph, basis: _Basis) -> Iterator[str]:
    """The text of ``signals --out`` for a verified basis of integer
    tables: an array of signal documents (README, "File formats"), one
    per vector, each table row rendered as one value array, one chunk per
    document and the closing bracket last, so a file can take each
    document as it is rendered. The vertex-label block is rendered
    once for all of them. Each distinct ``y`` of a vector is rendered
    once, as the quoted ``str(Fraction(y, d))``: divided by ``gcd(y, d)``,
    the sign on the numerator, as ``d`` is negative for some rank-1 maps.
    These strings match ``-?[0-9]+(/[0-9]+)?``, so they need no escaping.
    """
    if not basis:
        yield "[]\n"
        return
    labels = ",\n      ".join(map(_encode, h.vertices))
    head = (
        f'{{\n    "vertices": [\n      {labels}\n    ],\n'
        f'    "ell": {h.ell},\n    "values": [\n      [\n        '
    )
    value_sep, row_sep, tail = ",\n        ", "\n      ],\n      [\n        ", "\n      ]\n    ]\n  }"
    lead = "[\n  "
    for table, d in basis:
        quoted = {}
        for y in set(chain.from_iterable(table)):
            g = gcd(y, d) if d > 0 else -gcd(y, d)
            p, q = y // g, d // g
            quoted[y] = f'"{p}"' if q == 1 else f'"{p}/{q}"'
        rows = (value_sep.join(map(quoted.__getitem__, row)) for row in table)
        yield lead + head + row_sep.join(rows) + tail
        lead = ",\n  "
    yield "\n]\n"


def signal_from_json(obj) -> tuple[tuple[str, ...], int, Signal]:
    if not isinstance(obj, dict):
        raise FormatError("signal document must be a JSON object")
    try:
        vertices = obj["vertices"]
        ell = obj["ell"]
        values = obj["values"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("'vertices' must be an array of strings")
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise FormatError("'ell' must be an integer")
    if not isinstance(values, list) or len(values) != ell:
        raise FormatError("'values' must hold one array per axis")
    parsed: dict[str, Fraction] = {}  # strings only: true == 1 and hashes alike

    def parse(v) -> Fraction:
        if not isinstance(v, str):
            return _parse_rational(v)
        if v not in parsed:
            parsed[v] = _parse_rational(v)
        return parsed[v]

    rows = []
    for row in values:
        if not isinstance(row, list) or len(row) != len(vertices):
            raise FormatError("each value array must align with the vertex list")
        rows.append(tuple(map(parse, row)))
    return tuple(vertices), ell, Signal(tuple(rows))


def save_signal(h: Hypergraph, s: Signal, path: str | Path) -> None:
    """Write ``s`` as a signal file: :func:`_basis_chunks` of the one
    vector ``s``, its array removed by cutting the brackets and one level
    of indent, which cannot touch a label, as every label is encoded with
    its newlines escaped. A shape unlike ``h``'s is refused before any
    file is touched."""
    text = "".join(_basis_chunks(h, [_integer_table(h, s)]))
    _write_texts([(path, text[4:-3].replace("\n  ", "\n") + "\n")])


def load_signal(path: str | Path) -> tuple[tuple[str, ...], int, Signal]:
    return signal_from_json(_read_json(path))


def linear_map_from_json(obj) -> LinearMap:
    if (
        not isinstance(obj, list)
        or not obj
        or not all(isinstance(row, list) and row for row in obj)
    ):
        raise FormatError("map document must be a nonempty array of nonempty arrays")
    width = len(obj[0])
    if any(len(row) != width for row in obj):
        raise FormatError("map rows must all have the same length")
    return LinearMap([[_parse_rational(v) for v in row] for row in obj])


def load_linear_map(path: str | Path) -> LinearMap:
    return linear_map_from_json(_read_json(path))
