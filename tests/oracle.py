"""Reference implementations the library is checked against.

The brute-force references are deliberately naive and share no code with
the library paths they check: constraint systems enumerate all ell!
permutations per edge, elimination is textbook dense Gauss-Jordan on
lists of Fractions (identical rows dropped first, which leaves the row
space and so the RREF kernel basis unchanged), or on residues modulo 3
for the rank bound of fusion, and partitions are plain frozensets.

The one exception is :func:`assemble_constraints`, the sparse
sum-matrix (Birkhoff) assembly on all ``ell * n`` coordinates: the
differential reference for ``signal_space``'s reduced system, fast
enough for larger inputs. It shares the canonical kernel basis, the
integer map rows and the arity check with the library; the brute-force
references check it in turn. :func:`edge_loop_violation` runs the
verifier's sum-matrix test edge by edge in plain Python, the
differential reference for its columnar passes; it shares the witness
locator with the library.

The documents the library writes are references too:
:func:`hypergraph_to_json`, :func:`frame_result_to_json` and
:func:`signal_to_json` build them as dicts, and each written file is
``json.dumps(doc, indent=2)`` of one of them plus a newline, byte for
byte (README, "File formats").
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, combinations, permutations, product
from typing import NamedTuple, Sequence

from hypersig import FrameResult, Hypergraph, LinearMap, Signal
from hypersig.linalg import _integral_rows, _kernel_basis
from hypersig.signals import _check_arity, _first_witness


class IntegerRows(NamedTuple):
    """Integer rows over ``ncols`` columns, each row its ``(column,
    value)`` pairs with ascending columns and nonzero values."""

    ncols: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)


def canonical_kernel(m: IntegerRows) -> tuple[tuple[Fraction, ...], ...]:
    """The library's canonical kernel basis of ``m`` in ``Fraction``s:
    each vector of :func:`_kernel_basis` divided by its value at its free
    column, which makes it 1 there."""
    return tuple(tuple(Fraction(x, v[f]) for x in v) for f, v in _kernel_basis(m.rows, m.ncols))


def assemble_constraints(h: Hypergraph, t: LinearMap) -> IntegerRows:
    """Sparse integer constraint system whose kernel is the signal space.

    For edge ``e`` (a sorted tuple) and integer map row ``w`` (see
    :func:`_integral_rows`), every arrangement constraint is a permutation
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
    n, maps = h.n_vertices, _integral_rows(t.entries)
    rows: dict[tuple[tuple[int, int], ...], None] = {}
    for e in h.edges:
        x0 = e[0]
        others = sorted(set(e) - {x0})
        for w in maps:
            w0 = w[0]
            rows[tuple((x + a * n, c) for a, (x, c) in enumerate(zip(e, w)) if c)] = None
            for a in range(1, len(w)):
                wa, base = w[a], a * n
                for x in others:
                    row = ((x0, w0), (x, -w0)) if w0 else ()
                    if wa:
                        row += ((x0 + base, -wa), (x + base, wa))
                    rows[row] = None
    return IntegerRows(t.ell * n, tuple(rows))


def flat(s: Signal) -> tuple[Fraction, ...]:
    """A signal as a vector of the constraint systems here: flattened
    axis-major, its value at ``(a, x)`` at index ``a * n_vertices + x``."""
    return tuple(chain.from_iterable(s.values))


def sparse_signal_basis(h: Hypergraph, t: LinearMap) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical signal-space basis from the full assembly."""
    return canonical_kernel(assemble_constraints(h, t))


def edge_sum_rows(edges, col) -> list[tuple[tuple[int, int], ...]]:
    """The edge-sum system counted edge by edge: for each edge, the number
    of its vertices at each column ``col[x]`` and 1 at column ``len(col)``;
    each distinct row once, in order of first occurrence."""
    c = len(col)
    rows = {tuple(sorted(Counter(col[v] for v in e).items())) + ((c, 1),): None for e in edges}
    return list(rows)


def edge_loop_quotient(h: Hypergraph, class_of: Sequence[int]) -> Hypergraph:
    """The quotient of ``h`` built edge by edge: each edge's vertices
    mapped through ``class_of`` one at a time, each class labelled by its
    smallest member's label."""
    first: dict[int, str] = {}
    for x, k in enumerate(class_of):
        first.setdefault(k, h.vertices[x])
    labels = [first[k] for k in range(len(first))]
    return Hypergraph.build(h.ell, labels, [[class_of[v] for v in e] for e in h.edges])


def edge_loop_violation(
    h: Hypergraph, maps: Sequence[Sequence[int]], values: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """First (edge, arrangement, map row) that the integer signal table
    ``values[a][x]`` violates under the integer map rows ``maps``, or
    None: the sum-matrix test edge by edge and map row by map row, a zero
    trace and ``A[a][j] - A[a][0] == A[0][j] - A[0][0]`` for all
    ``a, j >= 1``, the first failing edge handed to ``_first_witness``."""
    # per map row w, the pairs (w_a, s_a), so that A[a][j] = w_a * s_a(e[j])
    terms = [list(zip(w, values)) for w in maps]
    checks = [(row, *row[0], row[1:]) for row in terms]
    for e in h.edges:
        x0, tail = e[0], e[1:]
        for row, c0, v0, rest in checks:
            if sum(c * col[x] for (c, col), x in zip(row, e)) or any(
                c * (col[x] - col[x0]) != c0 * (v0[x] - v0[x0]) for x in tail for c, col in rest
            ):
                return (e, *_first_witness(e, terms))
    return None


def grid_search_functional(t: LinearMap) -> tuple[int, ...]:
    """The first positive integer vector w, by increasing height max(w)
    and lexicographic within a height, with w . T(a) != 0 for every
    column; a plain enumeration of the grid, for an engaged map."""
    columns = [t.column(a) for a in range(t.ell)]
    height = 1
    while True:
        for w in product(range(1, height + 1), repeat=t.r):
            if max(w) == height and all(sum(x * c for x, c in zip(w, col)) for col in columns):
                return w
        height += 1


def dense_constraint_rows(h: Hypergraph, t: LinearMap) -> list[list[Fraction]]:
    """All r * |E| * ell! constraint rows, dense, duplicates intact."""
    n = h.n_vertices
    rows = []
    for e in h.edges:
        for sigma in permutations(range(h.ell)):
            arr = tuple(e[s] for s in sigma)
            for i in range(t.r):
                row = [Fraction(0)] * (h.ell * n)
                for a in range(h.ell):
                    row[a * n + arr[a]] += t.entries[i][a]
                rows.append(row)
    return rows


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis via textbook Gauss-Jordan with first-nonzero pivoting,
    over the distinct rows."""
    mat = [list(row) for row in dict.fromkeys(map(tuple, rows))]
    pivot_cols: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, len(mat)):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        pv = mat[prow][col]
        mat[prow] = [v / pv for v in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[prow])]
        pivot_cols.append(col)
        prow += 1
        if prow == len(mat):
            break
    free = [c for c in range(ncols) if c not in set(pivot_cols)]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivot_cols):
            v[c] = -mat[r][f]
        basis.append(v)
    return basis


def dense_gf3_kernel(rows, ncols: int) -> list[list[int]]:
    """Kernel basis modulo 3 of integer rows, each its ``(column, value)``
    pairs, via textbook dense Gauss-Jordan on residues 0, 1, 2: pivots
    scaled to 1 (2 is its own inverse), one vector per free column, 1
    there and 0 at the other free columns."""
    mat = []
    for row in rows:
        dense = [0] * ncols
        for c, v in row:
            dense[c] = v % 3
        mat.append(dense)
    pivot_cols: list[int] = []
    for col in range(ncols):
        prow = len(pivot_cols)
        sel = next((r for r in range(prow, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        inv = mat[prow][col]
        mat[prow] = [v * inv % 3 for v in mat[prow]]
        for r in range(len(mat)):
            if r != prow and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % 3 for a, b in zip(mat[r], mat[prow])]
        pivot_cols.append(col)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivot_cols):
            v[c] = -mat[r][f] % 3
        basis.append(v)
    return basis


def oracle_signal_basis(h: Hypergraph, t: LinearMap) -> list[list[Fraction]]:
    return dense_kernel(dense_constraint_rows(h, t), h.ell * h.n_vertices)


def oracle_signal_dimension(h: Hypergraph, t: LinearMap) -> int:
    return len(dense_kernel(dense_constraint_rows(h, t), h.ell * h.n_vertices))


def oracle_fusion_blocks(h: Hypergraph, t: LinearMap) -> frozenset[frozenset[int]]:
    """Fusion classes straight from the dense kernel: vertices grouped by
    their value tuples across all kernel vectors and axes."""
    return oracle_fusion_and_dimension(h, t)[0]


def oracle_fusion_and_dimension(
    h: Hypergraph, t: LinearMap
) -> tuple[frozenset[frozenset[int]], int]:
    n = h.n_vertices
    basis = dense_kernel(dense_constraint_rows(h, t), h.ell * n)
    groups: dict[tuple, set[int]] = {}
    for x in range(n):
        key = tuple(vec[a * n + x] for vec in basis for a in range(h.ell))
        groups.setdefault(key, set()).add(x)
    return frozenset(frozenset(g) for g in groups.values()), len(basis)


def partition_blocks(classes) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(block) for block in classes)


def covers_all(n: int, edges) -> bool:
    seen = set()
    for e in edges:
        seen.update(e)
    return len(seen) == n


def component_roots(n: int, edges) -> list[int]:
    """The union-find of ``hypersig.hypergraph._component_roots`` with its
    find as a nested function, the reference for the finds written out
    inline: each edge's later vertices hang under the root of its first,
    and every find halves its path, so the roots lists are equal, not only
    the components."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        r = find(e[0])
        for v in e[1:]:
            rv = find(v)
            if rv != r:
                parent[rv] = r
    return [find(x) for x in range(n)]


def edges_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    return len({find(x) for x in range(n)}) == 1


def enumerate_small_connected(cap: int = 1000) -> list[Hypergraph]:
    """Deterministic exhaustive enumeration of connected 3-uniform
    hypergraphs with at most 5 vertices and at most 4 edges (multiset
    edges included), in lexicographic order, capped per (n, m) cell so the
    total stays within ``cap``."""
    cells = [(n, m) for n in (3, 4, 5) for m in (1, 2, 3, 4)]
    quota = cap // len(cells)
    out: list[Hypergraph] = []
    for n, m in cells:
        pool = sorted(combinations_with_replacement(range(n), 3))
        taken = 0
        for combo in combinations(pool, m):
            if taken >= quota:
                break
            if not covers_all(n, combo) or not edges_connected(n, combo):
                continue
            labels = [f"x{i}" for i in range(n)]
            out.append(Hypergraph.build(3, labels, combo))
            taken += 1
    return out[:cap]


def hypergraph_to_json(h: Hypergraph) -> dict:
    """The hypergraph document of ``h``: the text of ``dumps_hypergraph``."""
    return {
        "ell": h.ell,
        "vertices": list(h.vertices),
        "edges": [list(h.edge_labels(e)) for e in h.edges],
    }


def frame_result_to_json(result: FrameResult, source: Hypergraph) -> dict:
    """The frame classes document: the frame, the fusion classes and the
    label map from original to frame vertices, each frame vertex labelled
    by the smallest member of its class."""
    frame_labels, class_of = result.frame.vertices, result.fusion.class_of
    return {
        "frame": hypergraph_to_json(result.frame),
        "classes": [[source.vertices[v] for v in block] for block in result.fusion.classes],
        "class_map": {x: frame_labels[c] for x, c in zip(source.vertices, class_of)},
    }


def signal_to_json(h: Hypergraph, s: Signal) -> dict:
    """The signal document of ``s`` on ``h``'s vertices, each value as
    ``str`` of its ``Fraction``: the text of ``save_signal``, and one item
    of ``signals --out``."""
    return {
        "vertices": list(h.vertices),
        "ell": h.ell,
        "values": [[str(v) for v in row] for row in s.values],
    }
