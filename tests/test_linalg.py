import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersig import (
    DomainError,
    Hypergraph,
    LinearMap,
    SparseMatrix,
    assemble_constraints,
    nullspace,
)
from conftest import random_engaged_map, random_multiset_instance
from oracle import dense_constraint_rows, dense_kernel


def identity(n):
    return SparseMatrix.from_dense([[int(i == j) for j in range(n)] for i in range(n)])


def test_nullspace_identity_is_trivial():
    basis = nullspace(identity(3))
    assert basis.dimension == 0
    assert basis.dimension_ambient == 3


def test_nullspace_zero_matrix_is_everything():
    basis = nullspace(SparseMatrix.from_dense([[0, 0, 0], [0, 0, 0]]))
    assert [list(v) for v in basis.vectors] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_nullspace_rank_one_row():
    basis = nullspace(SparseMatrix.from_dense([[1, 1, 1]]))
    assert [list(v) for v in basis.vectors] == [[-1, 1, 0], [-1, 0, 1]]


# Row dedupe happens once, in constraint assembly; the echelon reduces any
# duplicate row that still reaches nullspace to zero. Assembly emits the
# sum-matrix rows of each (edge, map row): the trace row, then the minor
# rows (a, x) for axes a >= 1 and the edge's vertices x other than e[0].


def test_dedupe_collapses_identical_rows():
    # a map with two equal rows yields each of the five triangle rows once
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap.from_rows([[1, 1, 1], [1, 1, 1]]))
    assert m.nrows == 5
    assert len(set(m.rows)) == 5


def test_dedupe_keeps_distinct_rows():
    # C at ell 3: each map row gives its trace and four minors, and none of
    # the ten rows repeats another
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap.from_rows([[1, -1, 0], [0, 1, -1]]))
    assert m.nrows == 10
    assert len(set(m.rows)) == 10


def test_assembly_keeps_first_seen_row_order_and_the_empty_row():
    # edge (u, u, v), the one vertex other than e[0] is v; columns are
    # 2a + x. Map row 2 repeats row 0, and the zero row 1 gives one empty
    # row, kept where it first appears rather than sorted to the front.
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    t = LinearMap.from_rows([[0, 1, 2], [0, 0, 0], [0, 1, 2], [1, 0, 0]])
    m = assemble_constraints(h, t)
    assert m.nrows == 6
    assert m.rows == (
        ((2, 1), (5, 2)),  # map row 0: trace
        ((2, -1), (3, 1)),  # map row 0: minor (1, v), w_0 = 0
        ((4, -2), (5, 2)),  # map row 0: minor (2, v)
        (),  # map row 1, every row
        ((0, 1),),  # map row 3: trace
        ((0, 1), (1, -1)),  # map row 3: minors (1, v) and (2, v), w_a = 0
    )


def _dense(m):
    """Dense Fraction rows; the stored values are ints, which the
    oracle's Gauss-Jordan would divide into floats."""
    out = []
    for row in m.rows:
        dense = [Fraction(0)] * m.ncols
        for c, v in row:
            dense[c] = Fraction(v)
        out.append(tuple(dense))
    return out


def _maps_with_duplicate_zero_and_rational_rows(rng, ell):
    rows = [list(row) for row in random_engaged_map(rng, ell).entries]
    rows += [rows[0], [0] * ell, [Fraction(v, rng.randint(1, 4)) for v in rows[-1]]]
    rng.shuffle(rows)
    return LinearMap.from_rows(rows)


def test_assembly_rows_are_the_distinct_oracle_rows():
    """The assembled rows are exactly the distinct rows built from the
    dense oracle's arrangement rows of each (edge, map row), scaled by the
    map row's lcm: the identity row (the trace), and for each minor (a, j)
    the difference of two permutation rows P - Q with
    P - Q = E[0][0] + E[a][j] - E[a][0] - E[0][j]. For a = j, P is the
    identity and Q swaps 0 and a; for a != j, P swaps a and j and Q maps
    0 -> j -> a -> 0. Minors with e[j] = e[0] vanish and are left out."""
    rng = random.Random(4417)
    for ell in (3,) * 12 + (4,) * 6 + (5,) * 3 + (6,) * 2:
        h = random_multiset_instance(rng, ell, m_max=3 if ell < 6 else 2)
        t = _maps_with_duplicate_zero_and_rational_rows(rng, ell)
        m = assemble_constraints(h, t)
        oracle = dense_constraint_rows(h, t)
        index = {sigma: k for k, sigma in enumerate(permutations(range(ell)))}

        def row(k, sigma, i):
            return oracle[(k * len(index) + index[sigma]) * t.r + i]

        expected = {}
        for k, e in enumerate(h.edges):
            for i, w in enumerate(t.entries):
                scale = lcm(*(c.denominator for c in w))
                identity = tuple(range(ell))
                expected[tuple(scale * v for v in row(k, identity, i))] = None
                for a in range(1, ell):
                    for j in range(1, ell):
                        if e[j] == e[0]:
                            continue
                        p, q = list(identity), list(identity)
                        if a == j:
                            q[0], q[a] = a, 0
                        else:
                            p[a], p[j] = j, a
                            q[0], q[a], q[j] = j, 0, a
                        diff = zip(row(k, tuple(p), i), row(k, tuple(q), i))
                        expected[tuple(scale * (x - y) for x, y in diff)] = None
        dense = _dense(m)
        assert len(set(dense)) == m.nrows
        assert all(type(c) is int for row in m.rows for _, c in row)
        assert set(dense) == set(expected)


def test_assembly_spans_the_oracle_row_space():
    """Two-way row-space check against the dense arrangement rows at ell 3
    to 6: every assembled row is orthogonal to the oracle system's kernel,
    so lies in its row space, every oracle row is orthogonal to the
    assembled system's kernel, and the ranks agree."""
    rng = random.Random(4418)
    for ell in (3,) * 8 + (4,) * 4 + (5,) * 2 + (6,):
        h = random_multiset_instance(rng, ell, n_max=6 if ell < 6 else 4, m_max=3 if ell < 6 else 2)
        t = _maps_with_duplicate_zero_and_rational_rows(rng, ell)
        m = assemble_constraints(h, t)
        ours = _dense(m)
        theirs = list(dict.fromkeys(map(tuple, dense_constraint_rows(h, t))))
        ours_kernel = dense_kernel([list(r) for r in ours], m.ncols)
        theirs_kernel = dense_kernel([list(r) for r in theirs], m.ncols)
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in ours for v in theirs_kernel)
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in theirs for v in ours_kernel)
        assert len(ours_kernel) == len(theirs_kernel)


def test_sparse_matrix_rejects_bad_entries():
    for rows in [
        (((0, 0),),),  # a stored zero
        (((2, 1),),),  # a column out of range
        (((-1, 1),),),
        (((0, 1), (0, 2)),),  # a repeated column
        ((), ((1, 1), (0, 1))),  # descending columns
        (((0, Fraction(1)),),),  # a value that is not an int
        (((0, True),),),
    ]:
        with pytest.raises(DomainError):
            SparseMatrix(2, rows)
    with pytest.raises(DomainError):
        SparseMatrix(-1, ())
    assert SparseMatrix(2, ((), ((0, -3), (1, 2)))).nrows == 2


def test_rational_invariants():
    q = Fraction(6, -4)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (-3, 2)


small_matrices = st.builds(
    lambda rows: SparseMatrix.from_dense(rows),
    st.integers(min_value=1, max_value=6).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=8,
        )
    ),
)


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_vectors_lie_in_kernel(m):
    basis = nullspace(m)
    for v in basis.vectors:
        assert [sum(val * v[c] for c, val in row) for row in m.rows] == [0] * m.nrows


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_matches_dense_oracle(m):
    expected = dense_kernel([list(row) for row in _dense(m)], m.ncols)
    got = nullspace(m)
    assert [list(v) for v in got.vectors] == [list(v) for v in expected]


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_nullspace_invariant_under_row_permutation_and_scaling(m, rng):
    rows = _dense(m)
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        k = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled.append([k * v for v in row])
    assert nullspace(SparseMatrix.from_dense(scaled)) == nullspace(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_nullspace_unchanged_by_dedupe(m):
    doubled = SparseMatrix.from_dense(_dense(m) * 2)
    assert nullspace(doubled) == nullspace(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_basis_reduced_echelon_shape(m):
    basis = nullspace(m)
    vectors = basis.vectors
    for i, v in enumerate(vectors):
        pivot = [c for c in range(m.ncols) if v[c] == 1 and all(w[c] == 0 for j, w in enumerate(vectors) if j != i)]
        assert pivot, "each basis vector owns a pivot coordinate"
