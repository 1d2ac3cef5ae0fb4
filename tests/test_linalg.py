import random
from fractions import Fraction

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
# duplicate row that still reaches nullspace to zero.


def test_dedupe_collapses_identical_rows():
    # a map with two equal rows yields each arrangement's row once
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap.from_rows([[1, 1, 1], [1, 1, 1]]))
    assert m.nrows == 6
    assert len({tuple(sorted(r.items())) for r in m.rows_as_dicts()}) == 6


def test_dedupe_keeps_distinct_rows():
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap.from_rows([[1, -1, 0], [0, 1, -1]]))
    assert m.nrows == 12


def test_assembly_keeps_first_seen_row_order_and_the_empty_row():
    # edge (u, u, v), arrangements (u,u,v), (u,v,u), (v,u,u); columns are
    # 2a + x. Map row 2 repeats row 0, and the zero row 1 gives one empty
    # row, kept where it first appears rather than sorted to the front.
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    t = LinearMap.from_rows([[0, 1, 2], [0, 0, 0], [0, 1, 2], [1, 0, 0]])
    m = assemble_constraints(h, t)
    assert m.nrows == 6
    assert m.entries == (
        (0, 2, 1), (0, 5, 2),  # (u,u,v), map row 0
        # row 1 is empty: (u,u,v), map row 1
        (2, 0, 1),  # (u,u,v), map row 3
        (3, 3, 1), (3, 4, 2),  # (u,v,u), map row 0
        (4, 2, 1), (4, 4, 2),  # (v,u,u), map row 0
        (5, 1, 1),  # (v,u,u), map row 3
    )


def test_assembly_rows_are_the_distinct_oracle_rows():
    """The assembled rows are exactly the distinct rows of the dense
    oracle system, each once, under maps with a duplicated row, a zero
    row and rational entries, on edges that repeat vertices."""
    rng = random.Random(4417)
    for ell in (3,) * 12 + (4,) * 6 + (5,) * 3:
        h = random_multiset_instance(rng, ell)
        rows = [list(row) for row in random_engaged_map(rng, ell).entries]
        rows += [rows[0], [0] * ell, [Fraction(v, rng.randint(1, 4)) for v in rows[-1]]]
        rng.shuffle(rows)
        t = LinearMap.from_rows(rows)
        m = assemble_constraints(h, t)
        dense = [
            tuple(row.get(c, Fraction(0)) for c in range(m.ncols)) for row in m.rows_as_dicts()
        ]
        assert len(set(dense)) == m.nrows
        assert set(dense) == set(map(tuple, dense_constraint_rows(h, t)))


def test_sparse_matrix_rejects_bad_entries():
    with pytest.raises(DomainError):
        SparseMatrix(1, 1, ((0, 0, Fraction(0)),))
    with pytest.raises(DomainError):
        SparseMatrix(1, 1, ((0, 1, Fraction(1)),))
    with pytest.raises(DomainError):
        SparseMatrix(2, 2, ((0, 0, Fraction(1)), (0, 0, Fraction(2))))


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
        product = [Fraction(0)] * m.nrows
        for r, c, val in m.entries:
            product[r] += val * v[c]
        assert product == [0] * m.nrows


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_matches_dense_oracle(m):
    dense = [
        [row.get(c, Fraction(0)) for c in range(m.ncols)] for row in m.rows_as_dicts()
    ]
    expected = dense_kernel(dense, m.ncols)
    got = nullspace(m)
    assert [list(v) for v in got.vectors] == [list(v) for v in expected]


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_nullspace_invariant_under_row_permutation_and_scaling(m, rng):
    rows = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for r, c, v in m.entries:
        rows[r][c] = v
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        k = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled.append([k * v for v in row])
    assert nullspace(SparseMatrix.from_dense(scaled)) == nullspace(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_nullspace_unchanged_by_dedupe(m):
    doubled = SparseMatrix.from_dense(
        [[row.get(c, Fraction(0)) for c in range(m.ncols)] for row in m.rows_as_dicts()] * 2
    )
    assert nullspace(doubled) == nullspace(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_basis_reduced_echelon_shape(m):
    basis = nullspace(m)
    vectors = basis.vectors
    for i, v in enumerate(vectors):
        pivot = [c for c in range(m.ncols) if v[c] == 1 and all(w[c] == 0 for j, w in enumerate(vectors) if j != i)]
        assert pivot, "each basis vector owns a pivot coordinate"
