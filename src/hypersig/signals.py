"""Signal spaces of uniform hypergraphs under linear maps.

A signal assigns a rational value to every (axis, vertex) pair. Given a
linear map ``T`` on axis space, a signal is admissible when ``T`` kills
the value tuple read off every edge in every arrangement. The admissible
signals of a hypergraph form a vector space, computed exactly here as the
nullspace of a sparse constraint matrix; a single "generating" signal
whose first-axis level sets realize the fusion partition is built on top.

Coordinate layout for flattened signals is fixed: coordinate ``(a, x)``
lives at index ``a * n_vertices + x`` (axis-major), so bases and file
dumps are stable across runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

from .errors import DisconnectedError, DomainError, FormatError, HypersigError, NotEngagedError
from .hypergraph import MIN_ARITY, Hypergraph, _read_json, _write_text, arrangements, is_connected
from .linalg import Basis, Rational, SparseMatrix, nullspace


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
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "LinearMap":
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
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "Signal":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def zero(cls, ell: int, n: int) -> "Signal":
        return cls(tuple((Fraction(0),) * n for _ in range(ell)))

    @property
    def ell(self) -> int:
        return len(self.values)

    @property
    def n_vertices(self) -> int:
        return len(self.values[0]) if self.values else 0

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.values for v in row)

    @classmethod
    def from_flat(cls, vec: Sequence[Fraction], ell: int, n: int) -> "Signal":
        if len(vec) != ell * n:
            raise DomainError("flat vector length mismatch")
        return cls(tuple(tuple(vec[a * n : (a + 1) * n]) for a in range(ell)))


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
        n = self.basis.dimension_ambient // self.linear_map.ell
        return [Signal.from_flat(v, self.linear_map.ell, n) for v in self.basis.vectors]


def _check_arity(h: Hypergraph, t: LinearMap) -> None:
    if t.ell != h.ell:
        raise DomainError(f"map arity {t.ell} != hypergraph arity {h.ell}")


def assemble_constraints(h: Hypergraph, t: LinearMap) -> SparseMatrix:
    """Sparse constraint system whose nullspace is the signal space.

    One row per (map row, edge, distinct arrangement); the row places
    coefficient ``M[i][a]`` in column ``(a, arrangement[a])``, accumulating
    when several contributions land on one column. Byte-identical rows are
    deduplicated.
    """
    _check_arity(h, t)
    n = h.n_vertices
    rows: list[dict[int, Fraction]] = []
    seen: set[tuple[tuple[int, Fraction], ...]] = set()
    for e in h.edges:
        for arr in arrangements(e):
            for i in range(t.r):
                row: dict[int, Fraction] = {}
                for a in range(t.ell):
                    coeff = t.entries[i][a]
                    if coeff == 0:
                        continue
                    col = a * n + arr[a]
                    acc = row.get(col, Fraction(0)) + coeff
                    if acc == 0:
                        row.pop(col, None)
                    else:
                        row[col] = acc
                key = tuple(sorted(row.items()))
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    entries = []
    for r_idx, row in enumerate(rows):
        for col, v in row.items():
            entries.append((r_idx, col, v))
    return SparseMatrix(len(rows), t.ell * n, tuple(sorted(entries)))


def find_violation(
    h: Hypergraph, t: LinearMap, s: Signal
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First (edge, arrangement, map row) whose constraint the signal
    violates, or None if the signal is admissible. Exhaustive and exact:
    every edge, every distinct arrangement, no sampling."""
    _check_arity(h, t)
    if s.ell != h.ell or s.n_vertices != h.n_vertices:
        raise DomainError(
            f"signal shape {s.ell}x{s.n_vertices} does not match "
            f"hypergraph {h.ell}x{h.n_vertices}"
        )
    for e in h.edges:
        for arr in arrangements(e):
            pulled = [s.values[a][arr[a]] for a in range(h.ell)]
            for i, row in enumerate(t.entries):
                if sum(c * v for c, v in zip(row, pulled) if c and v):
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
    basis = nullspace(assemble_constraints(h, t))
    space = SignalSpace(t, basis)
    for sig in space.signals():
        witness = find_violation(h, t, sig)
        if witness is not None:
            raise HypersigError(f"internal error: basis signal fails at {witness}")
    return space


def constant_space(t: LinearMap, n_vertices: int) -> SignalSpace:
    """Signals that are constant on every axis, with axis values drawn
    from the kernel of the map. Admissible for every hypergraph of
    matching arity."""
    kernel = nullspace(
        SparseMatrix.from_entries(
            t.r,
            t.ell,
            ((i, a, t.entries[i][a]) for i in range(t.r) for a in range(t.ell)),
        )
    )
    vectors = []
    for lam in kernel.vectors:
        sig = Signal.from_rows([[lam[a]] * n_vertices for a in range(t.ell)])
        vectors.append(sig.flatten())
    return SignalSpace(t, Basis(t.ell * n_vertices, tuple(vectors)))


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
    """Single admissible signal for the coordinate-sum map whose first-axis
    level sets realize the full fusion partition.

    Built by accumulating basis signals one at a time, each scaled by the
    smallest positive integer that avoids every ratio
    ``(delta1(x) - delta1(y)) / (beta1(y) - beta1(x))`` over vertex pairs
    separated by the incoming basis signal; this preserves previously
    established distinctions while adding the new ones. Comparisons happen
    on the first axis only: for connected input the axes of an admissible
    signal differ by constants, so every axis induces the same level sets.
    """
    if not is_connected(h):
        raise DisconnectedError("generating signal requires a connected hypergraph")
    space = signal_space(h, universal_map(h.ell))
    n = h.n_vertices
    delta = [[Fraction(0)] * n for _ in range(h.ell)]
    for beta in space.signals():
        d1, b1 = delta[0], beta.values[0]
        forbidden = set()
        for x in range(n):
            for y in range(x + 1, n):
                if b1[x] != b1[y]:
                    forbidden.add((d1[x] - d1[y]) / (b1[y] - b1[x]))
        k = 1
        while Fraction(k) in forbidden:
            k += 1
        for a in range(h.ell):
            row, brow = delta[a], beta.values[a]
            for x in range(n):
                row[x] += k * brow[x]
    return Signal(tuple(tuple(row) for row in delta))


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
    _write_text(path, json.dumps(signal_to_json(h, s), indent=2) + "\n")


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
