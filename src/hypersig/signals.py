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

Coordinate layout for flattened signals is fixed: coordinate ``(a, x)``
lives at index ``a * n_vertices + x`` (axis-major), so bases and file
dumps are stable across runs.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DisconnectedError, DomainError, FormatError, HypersigError, NotEngagedError
from .hypergraph import (
    MIN_ARITY,
    Hypergraph,
    Partition,
    _component_roots,
    _dumps,
    _read_json,
    _write_texts,
    is_connected,
)
from .linalg import (
    _ZERO,
    Basis,
    SparseMatrix,
    _forward_echelon,
    _integral_rows,
    _kernel_basis,
    _kernel_vector,
    nullspace,
)


@dataclass(frozen=True)
class LinearMap:
    """Dense ``r x ell`` rational matrix acting on axis space."""

    r: int
    ell: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 1 or self.ell < 1:
            raise DomainError("map dimensions must be positive")
        if len(self.entries) != self.r or any(len(row) != self.ell for row in self.entries):
            raise DomainError("entry matrix shape mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "LinearMap":
        ents = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(len(ents), len(ents[0]) if ents else 0, ents)

    def column(self, a: int) -> tuple[Fraction, ...]:
        """Image of the ``a``-th standard basis vector of axis space."""
        return tuple(self.entries[i][a] for i in range(self.r))


def universal_map(ell: int) -> LinearMap:
    """The coordinate-sum map: 1 x ell all-ones matrix."""
    if ell < MIN_ARITY:
        raise DomainError(f"arity must be >= {MIN_ARITY}")
    return LinearMap.from_rows([[1] * ell])


def centroid_map(ell: int) -> LinearMap:
    """The consecutive-difference map: (ell-1) x ell matrix with rows
    (..., 1, -1, ...); its kernel is the line of constant vectors."""
    if ell < MIN_ARITY:
        raise DomainError(f"arity must be >= {MIN_ARITY}")
    rows = []
    for i in range(ell - 1):
        row = [0] * ell
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    return LinearMap.from_rows(rows)


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
    the signal value of vertex ``x`` on axis ``a``."""

    values: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "Signal":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def ell(self) -> int:
        return len(self.values)

    @property
    def n_vertices(self) -> int:
        return len(self.values[0]) if self.values else 0


@dataclass(frozen=True)
class SignalSpace:
    """A space of admissible signals: map and an exact basis over the
    ambient dimension ``ell * n_vertices``."""

    linear_map: LinearMap
    basis: Basis

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def signals(self) -> list[Signal]:
        ell, vectors = self.linear_map.ell, self.basis.vectors
        n = self.basis.dimension_ambient // ell
        return [Signal(tuple(v[a * n : (a + 1) * n] for a in range(ell))) for v in vectors]


def _check_arity(h: Hypergraph, t: LinearMap) -> None:
    if t.ell != h.ell:
        raise DomainError(f"map arity {t.ell} != hypergraph arity {h.ell}")


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
    ``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` for all ``a, j >= 1``.
    Only on the first edge that fails is the first violated (arrangement,
    map row) located, in the lexicographic order of the edge's distinct
    arrangements, by the prefix search of :func:`_first_witness`.

    Integer only: the signal is scaled by the lcm of all its value
    denominators and each map row by the lcm of its own, which keeps
    every constraint's zero set, and :func:`_violation` checks these.
    """
    _check_arity(h, t)
    if s.ell != h.ell or s.n_vertices != h.n_vertices:
        raise DomainError(
            f"signal shape {s.ell}x{s.n_vertices} does not match "
            f"hypergraph {h.ell}x{h.n_vertices}"
        )
    scale = lcm(*{v.denominator for row in s.values for v in row})
    values = [[v.numerator * (scale // v.denominator) for v in row] for row in s.values]
    return _violation(h, _integral_rows(t.entries), values)


def _violation(
    h: Hypergraph, maps: Sequence[Sequence[int]], values: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """:func:`find_violation` on an integer signal table ``values[a][x]``,
    with the map given by its integer rows."""
    # per map row w, the pairs (w_a, s_a), so that A[a][j] = w_a * s_a(e[j])
    terms = [list(zip(w, values)) for w in maps]
    checks = [(row, *row[0], row[1:]) for row in terms]
    for e in h.edges:
        x0, tail = e[0], e[1:]
        # the sum-matrix test: a zero trace, and for all a, j >= 1
        # A[a][j] - A[a][0] == A[0][j] - A[0][0]
        for row, c0, v0, rest in checks:
            if sum(c * col[x] for (c, col), x in zip(row, e)) or any(
                c * (col[x] - col[x0]) != c0 * (v0[x] - v0[x0]) for x in tail for c, col in rest
            ):
                break
        else:
            continue
        return (e, *_first_witness(e, terms))
    return None


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


def signal_space(h: Hypergraph, t: LinearMap) -> SignalSpace:
    """The space of admissible signals of ``h`` under ``t``, with its
    canonical basis: each vector 1 at its last nonzero coordinate, its
    pivot, where every other vector is 0, in ascending pivot order. The
    map decides the case, as it decides fusion: an engaged map of rank 1
    solves one forward elimination in :func:`_rank_one_basis`, every
    other map takes the closed form of :func:`_closed_form_basis`; both
    read their kernels off :func:`hypersig.linalg._kernel_basis`.

    Both return each basis vector as integers ``y`` over its value ``d``
    at the pivot. Every basis signal is re-verified exactly as that
    integer table, a failure an internal error that raises; only then is
    it expanded to ``Fraction(y, d)``, one per distinct ``y``. Dividing
    by ``d`` keeps every constraint's zero set, so the emitted signals
    are the verified ones.
    """
    _check_arity(h, t)
    n = h.n_vertices
    maps = _integral_rows(t.entries)
    v = _rank_one_row(maps)
    basis = _closed_form_basis(h, maps) if v is None else _rank_one_basis(h, v)
    _check_basis(h, maps, ([ys[a * n : (a + 1) * n] for a in range(h.ell)] for ys, _ in basis))
    vectors = []
    for ys, d in basis:
        fractions = {y: Fraction(y, d) for y in set(ys)}
        fractions[0] = _ZERO  # one shared zero
        vectors.append(tuple(map(fractions.__getitem__, ys)))
    return SignalSpace(t, Basis(h.ell * n, tuple(vectors)))


def _rank_one_row(maps: Sequence[Sequence[int]]) -> Sequence[int] | None:
    """The row ``v`` of an engaged map of rank 1, from its integer rows:
    the first nonzero row, if it has no zero entry and every row is a
    multiple of it; None under a zero column or rank >= 2."""
    v = next((row for row in maps if any(row)), None)
    if v and all(v) and all(r[a] * v[0] == r[0] * v[a] for r in maps for a in range(len(v))):
        return v
    return None


def _ranked_components(h: Hypergraph) -> tuple[list[int], list[int]]:
    """The rank of each vertex's component and the largest vertex of each
    component, components ranked by their largest vertex."""
    roots = _component_roots(h.n_vertices, h.edges)
    top = {r: x for x, r in enumerate(roots)}
    tops = sorted(top.values())
    rank = {roots[x]: k for k, x in enumerate(tops)}
    return [rank[r] for r in roots], tops


def _rank_one_basis(h: Hypergraph, v: Sequence[int]) -> list[tuple[list[int], int]]:
    """Canonical basis of the signal space of an engaged map of rank 1,
    every row a multiple of ``v``, solved on ``n + (ell-1) * kappa``
    unknowns instead of ``ell * n`` (``kappa`` components, a vertex in no
    edge its own).

    A signal ``s`` is admissible iff ``v_a * s_a`` is under the
    coordinate-sum map, where ``u_a - u_{ell-1}`` is constant on every
    component. So with ``mu_a = lcm(v) / v_a`` (the lift of fusion),
    ``g = u_{ell-1}`` and ``h[a][k]`` the value of ``u_a`` at the largest
    vertex ``top_k`` of component ``k``,
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
    :func:`_kernel_basis` expand to the canonical basis as they are, each
    with its value at the pivot.
    """
    n, ell = h.n_vertices, h.ell
    comp, tops = _ranked_components(h)
    kappa = len(tops)
    base = (ell - 1) * kappa
    scale = lcm(*v)
    mu = [scale // x for x in v]
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
        ys: list[int] = []
        for a, m in enumerate(mu[:-1]):
            off = [u[a * kappa + k] - g[x] for k, x in enumerate(tops)]
            ys += [m * (y + off[k]) for y, k in zip(g, comp)]
        ys += [mu[-1] * y for y in g]
        vectors.append((ys, mu[f // kappa if f < base else ell - 1] * u[f]))
    return vectors


def _closed_form_basis(h: Hypergraph, maps: list[list[int]]) -> list[tuple[list[int], int]]:
    """Canonical basis of the signal space of a map with a zero column or
    an engaged map of rank >= 2, given by its integer rows, in closed
    form: no elimination but of the map itself, for its kernel.

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
    column of ``lam``. Each ``lam`` is kept in integers, ``lam_f`` at
    the pivot.
    """
    n, ell = h.n_vertices, h.ell
    zero = _zero_columns(maps)
    covered = {x for e in h.edges for x in e}
    units = {z * n + x for z in zero for x in range(n)}
    units |= {a * n + x for x in set(range(n)) - covered for a in range(ell)}
    by_pivot = {p: {p: 1} for p in units}
    comp, tops = _ranked_components(h)
    members: dict[int, list[int]] = {}
    for x in sorted(covered):
        members.setdefault(comp[x], []).append(x)
    rows = tuple(tuple((a, y) for a, y in enumerate(r) if y) for r in maps)
    for f, lam in _kernel_basis(rows, ell):
        if f not in zero:  # a zero column is free, so the other lam are 0 there
            for k, xs in members.items():
                by_pivot[f * n + tops[k]] = {
                    a * n + x: y for a, y in enumerate(lam) if y for x in xs
                }
    vectors = []
    for p in sorted(by_pivot):
        ys = [0] * (ell * n)
        for i, y in by_pivot[p].items():
            ys[i] = y
        vectors.append((ys, ys[p]))
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


def constant_space(t: LinearMap, n_vertices: int) -> SignalSpace:
    """Signals that are constant on every axis, with axis values drawn
    from the kernel of the map. Admissible for every hypergraph of
    matching arity."""
    kernel = nullspace(SparseMatrix.from_dense(t.entries))
    vectors = tuple(
        tuple(x for x in lam for _ in range(n_vertices)) for lam in kernel.vectors
    )
    return SignalSpace(t, Basis(t.ell * n_vertices, vectors))


def component_count_via_C(h: Hypergraph) -> int:
    """Number of connected components, read off as the dimension of the
    signal space under the consecutive-difference map. Its rank is
    ``ell - 1 >= 2``, so the closed form builds that space from the
    union-find components, re-verified by :func:`_check_basis`; the
    full-assembly oracle test checks the count independently."""
    return signal_space(h, centroid_map(h.ell)).dimension


def _search_functional(t: LinearMap) -> tuple[int, ...]:
    """Smallest integer vector w (grid enumeration of positive integers by
    increasing height, lexicographic within a height) with w . T(a) != 0
    for every axis a of an engaged map. Exists because each bad set is a
    hyperplane.

    Depth-first over prefixes in that order. A column's value is fixed
    once the prefix reaches its last nonzero entry, so a prefix that makes
    one zero there has no good completion and is skipped: the centroid
    map's w takes about two prefix tests per coordinate, where a plain
    enumeration of the grid passes more than ``2^(ell-3)`` points.
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
                if max(w) == height:
                    return tuple(w)
                i -= 1
            elif w[i] == height:
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
    scales = [
        sum(wi * ci for wi, ci in zip(w, t.column(a)))
        for a in range(t.ell)
    ]
    out = Signal.from_rows(
        [[scales[a] * v for v in s.values[a]] for a in range(t.ell)]
    )
    if not verify_signal(h, universal_map(h.ell), out):
        raise HypersigError("internal error: embedded signal fails verification")
    return out


def generating_signal(h: Hypergraph) -> Signal:
    """Single admissible signal for the coordinate-sum map whose level
    sets, on every axis, realize the full fusion partition: the certified,
    re-verified signal of :func:`_certified_signal`."""
    return Signal.from_rows(_certified_signal(h, universal_map(h.ell))[0])


# Seed of the draws of kernel vectors. The certified partition does not
# depend on it; only the number of draws does.
_DRAW_SEED = 20251031

# A draw fails only when some separable pair of the n vertices collides,
# with probability below n^2 / 2^33 for 32-bit free values, so running
# out of draws means the elimination is wrong.
_MAX_DRAWS = 64


def _draw(rng: random.Random, k: int) -> list[int]:
    """Free values of one kernel vector: ``k`` seeded 32-bit integers."""
    return [rng.getrandbits(32) for _ in range(k)]


def _edge_sum_rows(
    edges: Sequence[tuple[int, ...]], col: Sequence[int]
) -> list[tuple[tuple[int, int], ...]]:
    """The edge-sum system with vertex ``x`` at column ``col[x]``: one row
    per edge, the number of the edge's vertices at each column and 1 at
    column ``len(col)`` (``C``, after every vertex column), each distinct
    row once, in order of first occurrence. Rows are built from the
    distinct sorted column images, and only an image with a repeated
    column is counted."""
    c = len(col)
    rows = []
    for image in dict.fromkeys(tuple(sorted(map(col.__getitem__, e))) for e in edges):
        counts = zip(image, repeat(1)) if len(set(image)) == len(image) else Counter(image).items()
        rows.append((*counts, (c, 1)))
    return rows


def _certified_signal(h: Hypergraph, t: LinearMap) -> tuple[list[list[int]], Partition]:
    """One re-verified admissible signal of connected ``h`` under ``t``, as
    its integer table ``values[a][x]``, and the fusion partition, which
    the signal's level sets, on the axes together, realize.

    The map decides the case (:func:`hypersig.frames.fusion` says why): a
    zero column gives the discrete partition, and the vertex index on that
    axis; an engaged map of rank >= 2 one class, and the zero signal; an
    engaged map of rank 1, every row a multiple of the row ``v`` of
    :func:`_rank_one_row`, the fusion of :func:`_universal_fusion`, and its lift
    divided axis-wise by ``v``, kept in integers as ``u_a * (lcm(v) / v_a)``.
    """
    if not is_connected(h):
        raise DisconnectedError("fusion requires a connected hypergraph")
    _check_arity(h, t)
    n, ell = h.n_vertices, h.ell
    maps = _integral_rows(t.entries)
    v = _rank_one_row(maps)
    if v is not None:
        f, c, part = _universal_fusion(h)
        scale = lcm(*v)
        lift = [[x + c for x in f]] + [f] * (ell - 1)
        values = [[x * (scale // v[a]) for x in lift[a]] for a in range(ell)]
    elif zero := _zero_columns(maps):
        values = [list(range(n)) if a == zero[0] else [0] * n for a in range(ell)]
        part = Partition.from_keys(range(n))
    else:
        values, part = [[0] * n] * ell, Partition.from_keys([0] * n)
    _check_basis(h, maps, [values])
    return values, part


def _universal_fusion(h: Hypergraph) -> tuple[list[int], int, Partition]:
    """Fusion of connected ``h`` under the coordinate-sum map, certified
    from one kernel vector ``(f, C)`` of the edge-sum system of
    :func:`_edge_sum_rows`; the signal ``s_0 = f + C``, ``s_a = f``
    (a >= 1) realizes it, and the partition is the level sets of ``f``.

    1. forward echelon of the system, vertices by increasing degree and
       ``C`` last, rows in descending order of their highest vertex
       column, which gives its nullity;
    2. one kernel vector, back-substituted from seeded random free values;
    3. the level sets of its ``f`` as the candidate partition ``P``;
    4. the certificate: ``P`` is discrete, or the system with the columns
       of each block of ``P`` summed has the full system's nullity. Its
       kernel vectors lift injectively to the full kernel vectors that
       are constant on the blocks, so equal nullity means every kernel
       vector is constant on the blocks and ``P`` is the fusion.

    A rejected candidate is replaced by a fresh draw, never merged with
    it, so the returned vector alone realizes the partition, and the
    partition does not depend on the draws. ``_MAX_DRAWS`` rejections in
    a row raise an internal error.
    """
    n, edges = h.n_vertices, h.edges

    def eliminate(group: Sequence[int], k: int) -> tuple[dict[int, dict[int, int]], list[int]]:
        """Echelon of the system with the vertices of each of the ``k``
        groups sharing one column, groups in order of increasing degree,
        and each vertex's column."""
        degree = Counter(map(group.__getitem__, chain.from_iterable(edges)))
        place = {g: i for i, g in enumerate(sorted(range(k), key=degree.__getitem__))}
        col = [place[g] for g in group]
        return _forward_echelon(_edge_sum_rows(edges, col)), col

    echelon, col = eliminate(range(n), n)
    free_desc = [c for c in range(n, -1, -1) if c not in echelon]
    nullity = len(free_desc)
    rng = random.Random(_DRAW_SEED)
    for _ in range(_MAX_DRAWS):
        v = _kernel_vector(echelon, n + 1, dict(zip(free_desc, _draw(rng, nullity))))
        f = [v[c] for c in col]
        part = Partition.from_keys(f)
        k = part.n_classes
        if k == n or k + 1 - len(eliminate(part.class_of, k)[0]) == nullity:
            return f, v[-1], part
    raise HypersigError(f"internal error: no fusion certified in {_MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Signal files:
#   {"vertices": [str, ...], "ell": int, "values": [[rational-str, ...], ...]}
# with one value array per axis, aligned with the vertex order. Rationals
# are strings like "3" or "-2/5" (or JSON integers); floats, bools, signs
# other than a leading "-", spaces and non-ASCII digits are rejected.
#
# Linear map files: JSON array of arrays of rational strings.


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
    raise FormatError(
        f"invalid rational {v!r}: expected an integer or a string like \"-2/5\""
    )


def signal_to_json(h: Hypergraph, s: Signal) -> dict:
    if s.ell != h.ell or s.n_vertices != h.n_vertices:
        raise DomainError("signal shape does not match hypergraph")
    return {
        "vertices": list(h.vertices),
        "ell": h.ell,
        "values": [[str(v) for v in row] for row in s.values],
    }


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
    _write_texts([(path, _dumps(signal_to_json(h, s)))])


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
    return LinearMap.from_rows([[_parse_rational(v) for v in row] for row in obj])


def load_linear_map(path: str | Path) -> LinearMap:
    return linear_map_from_json(_read_json(path))
