"""Signal spaces of uniform hypergraphs under linear maps.

A signal assigns a rational value to every (axis, vertex) pair. Given a
linear map ``T`` on axis space, a signal is admissible when ``T`` kills
the value tuple read off every edge in every arrangement. The admissible
signals of a hypergraph form a vector space, computed exactly here as the
nullspace of a sparse constraint matrix with ``(ell-1)^2 + 1`` rows per
edge and map row, which span the same row space as the up to ``ell!``
arrangement constraints. Under every map, one admissible signal whose
level sets realize the fusion partition is certified from one kernel
vector, by the same engine: only its rows depend on the map, the smaller
edge-sum system under the coordinate-sum map and its nonzero multiples,
the sum-matrix rows of the signal space under every other map.

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
from functools import partial
from itertools import product
from math import lcm
from pathlib import Path
from typing import Sequence

from .errors import DisconnectedError, DomainError, FormatError, HypersigError, NotEngagedError
from .hypergraph import (
    MIN_ARITY,
    Hypergraph,
    Partition,
    _dumps,
    _read_json,
    _write_text,
    arrangements,
    is_connected,
)
from .linalg import Basis, SparseMatrix, _forward_echelon, _kernel_vector, nullspace


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
    return _zero_column(t) is None


def _zero_column(t: LinearMap) -> int | None:
    for a in range(t.ell):
        if all(v == 0 for v in t.column(a)):
            return a
    return None


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


def _integer_rows(t: LinearMap) -> list[list[int]]:
    """The map's rows, each scaled by the lcm of its own denominators to
    integers; scaling a row changes no constraint's zero set."""
    out = []
    for row in t.entries:
        k = lcm(*(c.denominator for c in row))
        out.append([c.numerator * (k // c.denominator) for c in row])
    return out


def assemble_constraints(h: Hypergraph, t: LinearMap) -> SparseMatrix:
    """Sparse integer constraint system whose nullspace is the signal space.

    For edge ``e`` (a sorted tuple) and integer map row ``w`` (see
    :func:`_integer_rows`), every arrangement constraint is a permutation
    sum of the ``ell x ell`` matrix ``A[a][j] = w_a * s_a(e[j])``. The
    permutation matrices span exactly the matrices whose row and column
    sums are all equal (Birkhoff), so the same row space comes from
    ``(ell-1)^2 + 1`` rows instead of up to ``ell!``:

    - the trace row ``sum_a w_a * (a, e[a])``;
    - for ``a, j >= 1`` with ``e[j] != e[0]``, the minor row
      ``w_a*(a, e[j]) - w_a*(a, e[0]) - w_0*(0, e[j]) + w_0*(0, e[0])``
      (with ``e[j] = e[0]`` it vanishes).

    Rows run by edge, then map row, trace first, minors by ``(a, e[j])``;
    columns ascend within a row. Equal rows are kept once, at their first
    position; a zero map row gives one empty row.
    """
    _check_arity(h, t)
    n = h.n_vertices
    rows = _sum_matrix_rows(h.edges, _integer_rows(t), range(n), n)
    entries = tuple((r, col, c) for r, row in enumerate(rows) for col, c in row)
    return SparseMatrix(len(rows), t.ell * n, entries)


def _sum_matrix_rows(
    edges: Sequence[tuple[int, ...]], maps: Sequence[Sequence[int]], col: Sequence[int], stride: int
) -> dict[tuple[tuple[int, int], ...], None]:
    """The rows of :func:`assemble_constraints` for the integer map rows
    ``maps``, with coordinate ``(a, x)`` at column ``col[x] + a * stride``,
    each distinct row once. Vertices that share a column have their
    coordinates summed, so a minor row whose two vertices share a column
    vanishes and is left out."""
    rows: dict[tuple[tuple[int, int], ...], None] = {}
    for e in edges:
        c0 = col[e[0]]
        others = sorted({col[x] for x in e} - {c0})
        for w in maps:
            w0 = w[0]
            rows[tuple((col[x] + a * stride, c) for a, (x, c) in enumerate(zip(e, w)) if c)] = None
            for a in range(1, len(w)):
                wa, base = w[a], a * stride
                for c in others:
                    row = ((c0, w0), (c, -w0)) if w0 else ()
                    if wa:
                        row += ((c0 + base, -wa), (c + base, wa))
                    rows[row] = None
    return rows


def find_violation(
    h: Hypergraph, t: LinearMap, s: Signal
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First (edge, arrangement, map row) whose constraint the signal
    violates, in that order, or None if the signal is admissible. Exact:
    every edge and map row is checked, no sampling.

    Each (edge, map row) is decided by the sum-matrix test of
    :func:`assemble_constraints`' rows: with ``A[a][j] = w_a * s_a(e[j])``,
    every arrangement constraint holds iff the trace of ``A`` is zero and
    ``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` for all ``a, j >= 1``.
    Only on the first edge that fails are its distinct arrangements
    enumerated, to name the first violated (arrangement, map row).

    Integer only: the signal is scaled by the lcm of all its value
    denominators and each map row by the lcm of its own, which leaves
    every constraint's zero set unchanged.
    """
    _check_arity(h, t)
    return _violation(h, _integer_rows(t), s)


def _violation(
    h: Hypergraph, maps: Sequence[Sequence[int]], s: Signal
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """:func:`find_violation` with the map given by its integer rows."""
    if s.ell != h.ell or s.n_vertices != h.n_vertices:
        raise DomainError(
            f"signal shape {s.ell}x{s.n_vertices} does not match "
            f"hypergraph {h.ell}x{h.n_vertices}"
        )
    scale = lcm(*(v.denominator for row in s.values for v in row if v))
    values = [
        [v.numerator * (scale // v.denominator) if v else 0 for v in row] for row in s.values
    ]
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
        for arr in arrangements(e):
            for i, row in enumerate(terms):
                if sum(c * col[x] for (c, col), x in zip(row, arr)):
                    return e, arr, i
    return None


def verify_signal(h: Hypergraph, t: LinearMap, s: Signal) -> bool:
    """Exact admissibility check of a signal against every edge and every
    distinct arrangement."""
    return find_violation(h, t, s) is None


def signal_space(h: Hypergraph, t: LinearMap) -> SignalSpace:
    """The space of admissible signals of ``h`` under ``t``.

    Every basis signal is re-verified exactly against the defining
    constraints before being returned; a failure would indicate an
    internal error and raises.
    """
    space = SignalSpace(t, nullspace(assemble_constraints(h, t)))
    _check_basis(h, t, space.signals())
    return space


def _check_basis(h: Hypergraph, t: LinearMap, signals: Sequence[Signal]) -> None:
    """Re-verify computed basis signals exactly, by the sum-matrix test of
    :func:`find_violation`, with the map's integer rows built once for all
    of them; a failure is an internal error and raises."""
    maps = _integer_rows(t)
    for sig in signals:
        witness = _violation(h, maps, sig)
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
    signal space under the consecutive-difference map."""
    return signal_space(h, centroid_map(h.ell)).dimension


def _search_functional(t: LinearMap) -> tuple[int, ...]:
    """Smallest integer vector w (grid enumeration of positive integers by
    increasing height, lexicographic within a height) with w . T(a) != 0
    for every axis a. Exists because each bad set is a hyperplane."""
    columns = [t.column(a) for a in range(t.ell)]
    height = 1
    while True:
        for w in product(range(1, height + 1), repeat=t.r):
            if max(w) != height:
                continue
            if all(
                sum(wi * ci for wi, ci in zip(w, col)) != 0 for col in columns
            ):
                return w
        height += 1


def embed_to_universal(h: Hypergraph, t: LinearMap, s: Signal) -> Signal:
    """Rescale an admissible signal for ``t`` into an admissible signal for
    the coordinate-sum map, multiplying axis ``a`` by ``w . T(a)`` for a
    deterministically chosen integer vector ``w``.

    Requires ``t`` to be engaged; a zero column would leave the axis
    unconstrained and the rescaling undefined.
    """
    zero_col = _zero_column(t)
    if zero_col is not None:
        raise NotEngagedError(zero_col)
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
    return _certified_signal(h, universal_map(h.ell))[0]


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


def _sums_coordinates(t: LinearMap) -> bool:
    """True iff every row of ``t`` is constant and some row is nonzero,
    i.e. ``t`` has the kernel of the coordinate-sum map."""
    rows = t.entries
    return all(len(set(row)) == 1 for row in rows) and any(row[0] for row in rows)


def _edge_sum_rows(
    edges: Sequence[tuple[int, ...]], col: Sequence[int]
) -> dict[tuple[tuple[int, int], ...], None]:
    """The edge-sum system with vertex ``x`` at column ``col[x]``: one row
    per edge, the number of the edge's vertices at each column and 1 at
    column ``len(col)`` (``C``, after every vertex column), each distinct
    row once."""
    c = len(col)
    return {tuple(sorted(Counter(col[v] for v in e).items())) + ((c, 1),): None for e in edges}


def _certified_signal(h: Hypergraph, t: LinearMap) -> tuple[Signal, Partition]:
    """Fusion partition of connected ``h`` under ``t``, and one re-verified
    admissible signal whose level sets, on the axes together, realize it.

    Fusion is the common refinement of the level sets of the kernel
    vectors of a linear system; only that system depends on the map:

    - if every row of ``t`` is a multiple of the all-ones row and some row
      is nonzero, the edge-sum system of :func:`_edge_sum_rows`, whose
      kernel vectors ``(f, C)`` give the signals ``s_0 = f + C``,
      ``s_a = f`` (a >= 1), keyed on ``f``;
    - for every other map, the sum-matrix rows of
      :func:`assemble_constraints`, whose kernel vectors are the signals.

    Steps, each vertex's columns given by a vertex-to-column map:

    1. forward echelon of the system, vertices by increasing degree and
       the axes of a vertex side by side, which gives its nullity;
    2. one kernel vector, back-substituted from seeded random free values;
    3. its level sets as the candidate partition ``P``;
    4. the certificate: ``P`` is discrete, or the system with the columns
       of each block of ``P`` summed has the full system's nullity. Its
       kernel vectors lift injectively to the full kernel vectors that
       are constant on the blocks, so equal nullity means every kernel
       vector is constant on the blocks and ``P`` is the fusion;
    5. the accepted vector's signal, re-verified under ``t``.

    A rejected candidate is replaced by a fresh draw, never merged with
    it, so the returned signal alone realizes the partition, and the
    partition does not depend on the draws. ``_MAX_DRAWS`` rejections in
    a row raise an internal error.
    """
    if not is_connected(h):
        raise DisconnectedError("fusion requires a connected hypergraph")
    _check_arity(h, t)
    n, edges = h.n_vertices, h.edges
    if _sums_coordinates(t):  # the unknowns (f, C): one column per vertex, then C
        blocks, extra, rows = 1, 1, partial(_edge_sum_rows, edges)
    else:  # the unknowns: the ell values of each vertex, side by side
        blocks, extra = h.ell, 0
        rows = partial(_sum_matrix_rows, edges, _integer_rows(t), stride=1)

    def eliminate(group: Sequence[int], k: int) -> tuple[dict[int, dict[int, int]], list[int]]:
        """Echelon of the system with the vertices of each of the ``k``
        groups sharing their columns, groups in order of increasing
        degree, and each vertex's first column."""
        degree = Counter(group[v] for e in edges for v in e)
        first = [0] * k
        for i, g in enumerate(sorted(range(k), key=degree.__getitem__)):
            first[g] = i * blocks
        col = [first[g] for g in group]
        return _forward_echelon(rows(col)), col

    echelon, col = eliminate(range(n), n)
    ncols = blocks * n + extra
    nullity = ncols - len(echelon)
    rng = random.Random(_DRAW_SEED)
    for _ in range(_MAX_DRAWS):
        v = _kernel_vector(echelon, ncols, _draw(rng, nullity))
        axes = [[v[c + b] for c in col] for b in range(blocks)]
        part = Partition.from_keys(list(zip(*axes)))
        k = part.n_classes
        if k == n or blocks * k + extra - len(eliminate(part.class_of, k)[0]) == nullity:
            values = [tuple(map(Fraction, row)) for row in axes]
            if extra:
                values = [tuple(x + v[-1] for x in values[0])] + values * (h.ell - 1)
            sig = Signal(tuple(values))
            _check_basis(h, t, [sig])
            return sig, part
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
    rows = []
    for row in values:
        if not isinstance(row, list) or len(row) != len(vertices):
            raise FormatError("each value array must align with the vertex list")
        rows.append([_parse_rational(v) for v in row])
    return tuple(vertices), ell, Signal.from_rows(rows)


def save_signal(h: Hypergraph, s: Signal, path: str | Path) -> None:
    _write_text(path, _dumps(signal_to_json(h, s)))


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
