import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersig.signals
from hypersig import Hypergraph, LinearMap, Partition, frame, quotient, random_hypergraph
from hypersig.linalg import _forward_echelon, _gf3_kernel, _integral_rows, _kernel_basis
from hypersig.signals import _edge_sum_echelon, _edge_sum_gf3_rows, _edge_sum_peel
from conftest import random_engaged_map, random_multiset_instance
from oracle import (
    IntegerRows,
    assemble_constraints,
    canonical_kernel,
    dense_constraint_rows,
    dense_gf3_kernel,
    dense_kernel,
    edge_loop_quotient,
    edge_sum_rows,
)


def from_dense(rows):
    """Dense rational rows as integer rows, each scaled by the lcm of its
    denominators, which keeps the kernel."""
    ints = _integral_rows(rows)
    return IntegerRows(len(rows[0]), tuple(tuple((c, v) for c, v in enumerate(r) if v) for r in ints))


def identity(n):
    return from_dense([[int(i == j) for j in range(n)] for i in range(n)])


def test_nullspace_identity_is_trivial():
    assert canonical_kernel(identity(3)) == ()


def test_nullspace_zero_matrix_is_everything():
    assert canonical_kernel(from_dense([[0, 0, 0], [0, 0, 0]])) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_nullspace_rank_one_row():
    assert canonical_kernel(from_dense([[1, 1, 1]])) == ((-1, 1, 0), (-1, 0, 1))


# Row dedupe happens once, in constraint assembly; the echelon reduces any
# duplicate row that still reaches the kernel basis to zero. Assembly emits the
# sum-matrix rows of each (edge, map row): the trace row, then the minor
# rows (a, x) for axes a >= 1 and the edge's vertices x other than e[0].


def test_dedupe_collapses_identical_rows():
    # a map with two equal rows yields each of the five triangle rows once
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap([[1, 1, 1], [1, 1, 1]]))
    assert m.nrows == 5
    assert len(set(m.rows)) == 5


def test_dedupe_keeps_distinct_rows():
    # C at ell 3: each map row gives its trace and four minors, and none of
    # the ten rows repeats another
    h = Hypergraph.build(3, ["u", "v", "w"], [(0, 1, 2)])
    m = assemble_constraints(h, LinearMap([[1, -1, 0], [0, 1, -1]]))
    assert m.nrows == 10
    assert len(set(m.rows)) == 10


def test_assembly_keeps_first_seen_row_order_and_the_empty_row():
    # edge (u, u, v), the one vertex other than e[0] is v; columns are
    # 2a + x. Map row 2 repeats row 0, and the zero row 1 gives one empty
    # row, kept where it first appears rather than sorted to the front.
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    t = LinearMap([[0, 1, 2], [0, 0, 0], [0, 1, 2], [1, 0, 0]])
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
    return LinearMap(rows)


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


def test_rational_invariants():
    q = Fraction(6, -4)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (-3, 2)


small_matrices = st.builds(
    from_dense,
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
    for v in canonical_kernel(m):
        assert [sum(val * v[c] for c, val in row) for row in m.rows] == [0] * m.nrows


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_matches_dense_oracle(m):
    expected = dense_kernel([list(row) for row in _dense(m)], m.ncols)
    assert [list(v) for v in canonical_kernel(m)] == expected


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_nullspace_invariant_under_row_permutation_and_scaling(m, rng):
    rows = _dense(m)
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        k = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled.append([k * v for v in row])
    assert canonical_kernel(from_dense(scaled)) == canonical_kernel(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_nullspace_unchanged_by_dedupe(m):
    assert canonical_kernel(from_dense(_dense(m) * 2)) == canonical_kernel(m)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_basis_reduced_echelon_shape(m):
    vectors = canonical_kernel(m)
    for i, v in enumerate(vectors):
        pivot = [c for c in range(m.ncols) if v[c] == 1 and all(w[c] == 0 for j, w in enumerate(vectors) if j != i)]
        assert pivot, "each basis vector owns a pivot coordinate"


def _edge_sum_system(h):
    """The rows :func:`_edge_sum_echelon` hands to the forward echelon,
    the echelon it returns and each vertex's column."""
    seen = []

    def capture(rows):
        seen.append(list(rows))
        return _forward_echelon(seen[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypersig.signals, "_forward_echelon", capture)
        echelon, col = _edge_sum_echelon(h.n_vertices, h.edges)
    (rows,) = seen
    return rows, echelon, col


def _assert_edge_sum_rows_match_the_counter_reference(g):
    rows, echelon, col = _edge_sum_system(g)
    degree = Counter(chain.from_iterable(g.edges))
    order = sorted(range(g.n_vertices), key=col.__getitem__)
    assert order == sorted(range(g.n_vertices), key=degree.__getitem__)
    assert rows == edge_sum_rows(g.edges, col)
    assert echelon == _forward_echelon(rows)
    assert _edge_sum_gf3_rows(g, col) == bitsliced(rows)


def _quotient_matches_the_edge_loop(h, p):
    g = quotient(h, p)
    assert g == edge_loop_quotient(h, p.class_of)
    return g


def repeats_at_every_position_pair(ell):
    """One edge per pair of positions ``i < j``, its vertex ``i`` at
    positions ``i..j`` (so 3 times and more when ``j > i + 1``), plus an
    edge of distinct vertices."""
    edges = [tuple(range(ell))]
    for i, j in combinations(range(ell), 2):
        edges.append(tuple(min(a, i) if a <= j else a for a in range(ell)))
    return Hypergraph.build(ell, [f"x{a}" for a in range(ell)], edges)


def test_edge_sum_echelon_rows_match_the_counter_reference():
    """The rows the one edge-sum routine eliminates equal the rows counted
    edge by edge, with vertices in order of increasing degree, ties by id,
    and so do the bitsliced rows modulo 3, which are built from the edge
    columns: on inputs with repeated vertices, a repeat at every pair of
    positions at ell 4-6 and a vertex three times in an edge among them,
    and on quotients of them, where more vertices repeat, as on a frame.
    Each quotient equals the one mapped edge by edge, the edge-free one
    too."""
    h = Hypergraph.build(3, tuple("abcd"), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (2, 2, 3)])
    rows, echelon, col = _edge_sum_system(h)
    assert col == [1, 0, 3, 2]
    assert rows == [
        ((0, 1), (1, 1), (3, 1), (4, 1)),
        ((0, 1), (1, 1), (2, 1), (4, 1)),
        ((1, 1), (2, 1), (3, 1), (4, 1)),
        ((2, 1), (3, 2), (4, 1)),
    ]
    assert _edge_sum_gf3_rows(Hypergraph.build(3, tuple("ab"), [(0, 0, 0), (0, 0, 1)]), [0, 1]) == [
        (0b100, 0b000),  # three times vanishes modulo 3: C alone
        (0b110, 0b001),
    ]
    for ell in (4, 5, 6):
        h = repeats_at_every_position_pair(ell)
        assert h.n_edges == 1 + ell * (ell - 1) // 2
        _assert_edge_sum_rows_match_the_counter_reference(h)
        # merging two vertices of the distinct edge repeats a vertex there
        g = _quotient_matches_the_edge_loop(h, Partition.from_keys([0, 0, *range(1, ell - 1)]))
        assert any(e[0] == e[1] for e in g.edges)
        _assert_edge_sum_rows_match_the_counter_reference(g)
    edge_free = Hypergraph.build(3, tuple("abc"))
    assert _edge_sum_gf3_rows(edge_free, [0, 1, 2]) == []
    _quotient_matches_the_edge_loop(edge_free, Partition.from_keys([0, 1, 0]))
    rng = random.Random(14)
    for ell in (3, 4, 5):
        for _ in range(40):
            h = random_multiset_instance(rng, ell, n_max=9, m_max=8)
            k = rng.randint(1, h.n_vertices)
            p = Partition.from_keys([rng.randrange(k) for _ in h.vertices])
            for g in (h, _quotient_matches_the_edge_loop(h, p)):
                _assert_edge_sum_rows_match_the_counter_reference(g)


edge_sum_inputs = st.tuples(st.integers(3, 6), st.integers(1, 8)).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        # each edge with its first vertex put 1, 2 or 3 times
        st.lists(
            st.tuples(
                st.lists(st.integers(0, shape[1] - 1), min_size=shape[0], max_size=shape[0]),
                st.integers(1, 3),
            ),
            max_size=10,
        ),
        st.lists(st.integers(0, shape[1] - 1), min_size=shape[1], max_size=shape[1]),
    )
)


def _assert_edge_sum_rank(g, dense=True):
    """The rank by peeling, the rows peeled and the 2-core's pivots,
    equals the exact echelon's, and the dense oracle's Gauss-Jordan rank
    of the rows counted edge by edge."""
    order, echelon, _ = _edge_sum_peel(g)
    rank = len(order) + len(echelon)
    assert rank == len(_edge_sum_echelon(g.n_vertices, g.edges)[0])
    if dense:
        ncols = g.n_vertices + 1
        rows = IntegerRows(ncols, tuple(edge_sum_rows(g.edges, range(g.n_vertices))))
        assert rank == ncols - len(dense_kernel(_dense(rows), ncols))
    return rank


@given(edge_sum_inputs)
@settings(max_examples=200, deadline=None)
def test_edge_sum_rank_matches_the_echelon_and_the_dense_oracle(system):
    """Differential of the peeled rank at ell 3-6 on inputs with a vertex
    two and three times in an edge, isolated vertices and no edge at all,
    and on their quotients by a random partition."""
    (ell, n), drawn, keys = system
    edges = []
    for e, times in drawn:
        e[1:times] = [e[0]] * (times - 1)
        edges.append(e)
    h = Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)
    _assert_edge_sum_rank(h)
    _assert_edge_sum_rank(quotient(h, Partition.from_keys(keys)))


@pytest.mark.parametrize(
    "h",
    [
        Hypergraph.build(3, tuple("ab")),
        Hypergraph.build(3, tuple("abcd"), [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]),  # a 2-core
        repeats_at_every_position_pair(4),
        repeats_at_every_position_pair(6),
    ],
    ids=["edge-free", "two-vertices", "repeats-ell4", "repeats-ell6"],
)
def test_edge_sum_rank_on_pinned_inputs(h):
    _assert_edge_sum_rank(h)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_edge_sum_rank_peels_an_empty_core_without_eliminating(seed, monkeypatch):
    """Near discrete, every row peels away: the rank is the edge count,
    as the exact echelon says, and nothing is eliminated to get it."""
    h = random_hypergraph(200, 173, 3, seed)
    rank = _assert_edge_sum_rank(h, dense=False)
    calls = []
    monkeypatch.setattr(hypersig.signals, "_edge_sum_echelon", lambda *args: calls.append(args))
    order, echelon, _ = _edge_sum_peel(h)
    assert (len(order), echelon) == (rank, {})
    assert rank == h.n_edges
    assert calls == []


@pytest.mark.parametrize("n,m,seed,core", [(60, 52, 3, 20), (200, 173, 1, 96), (300, 300, 1, 214)])
def test_edge_sum_peel_builds_no_hypergraph(n, m, seed, core, monkeypatch):
    """The peel hands a nonempty 2-core to the exact elimination as a
    list of edges: no ``Hypergraph`` is built, or checked, on the way."""
    h = random_hypergraph(n, m, 3, seed)
    built = []
    monkeypatch.setattr(Hypergraph, "__post_init__", built.append)
    order, echelon, _ = _edge_sum_peel(h)
    assert (m - len(order), built) == (core, [])
    assert echelon


def _assert_forward_rank_on_shuffles(rows, ncols, rng):
    rank = ncols - len(dense_kernel(_dense(IntegerRows(ncols, tuple(rows))), ncols))
    for _ in range(4):
        rng.shuffle(rows)
        pivots = _forward_echelon(rows)
        assert len(pivots) == rank
        assert all(min(p) == c for c, p in pivots.items())
    return rank


@pytest.mark.parametrize("seed", range(6))
def test_forward_echelon_rank_matches_reduced_echelon_on_edge_sum_rows(seed):
    """The rank from the forward echelon, which sorts its rows, equals the
    number of pivots of the oracle's reduced echelon form (its Gauss-Jordan
    ``dense_kernel``): for the one edge-sum routine, and on shuffled copies
    of its rows, on sweep-sized inputs and on their frames."""
    rng = random.Random(seed)
    h = random_hypergraph(50, rng.choice((38, 43, 50)), 3, seed)
    for g in (h, frame(h).frame):
        rows, echelon, _ = _edge_sum_system(g)
        assert len(echelon) == _assert_forward_rank_on_shuffles(rows, g.n_vertices + 1, rng)


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_forward_echelon_rank_matches_reduced_echelon(m, rng):
    _assert_forward_rank_on_shuffles(list(m.rows), m.ncols, rng)


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_basis_vectors_are_primitive_and_one_hot_on_the_free_columns(m):
    """Each vector of the shared kernel basis is a primitive integer kernel
    vector, positive at its free column ``f``, 0 at every other free
    column and after ``f``; the free columns ascend."""
    basis = _kernel_basis(m.rows, m.ncols)
    free = [f for f, _ in basis]
    assert free == sorted(free)
    assert len(free) == m.ncols - len(_forward_echelon(m.rows))
    for f, v in basis:
        assert len(v) == m.ncols and gcd(*v) == 1 and v[f] > 0
        assert all(v[c] == 0 for c in free if c != f)
        assert not any(v[f + 1 :])
        assert all(sum(x * v[c] for c, x in row) == 0 for row in m.rows)


gf3_systems = st.integers(min_value=1, max_value=10).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols).map(
                lambda r: tuple((c, v) for c, v in enumerate(r) if v)
            ),
            max_size=10,
        ),
    )
)


def bitsliced(rows):
    """Integer rows modulo 3 as the bitmask pairs of their columns valued
    1 and valued 2."""
    return [
        tuple(sum(1 << c for c, v in row if v % 3 == r) for r in (1, 2)) for row in rows
    ]


def _assert_gf3_kernel_matches_the_oracle(rows, ncols):
    basis = dense_gf3_kernel(rows, ncols)
    rank, packed = _gf3_kernel(bitsliced(rows), ncols)
    assert rank == ncols - len(basis)
    signatures = [tuple(v[c] for v in basis) for c in range(ncols)]
    assert Partition.from_keys(packed) == Partition.from_keys(signatures)
    return rank


@given(gf3_systems)
@settings(max_examples=150, deadline=None)
def test_gf3_kernel_matches_dense_gauss_jordan_mod_3(system):
    """The rank modulo 3 and the grouping of columns by their values over
    the kernel modulo 3 equal the oracle's dense Gauss-Jordan on residues,
    on integer rows with entries that vanish modulo 3 and negative ones."""
    ncols, rows = system
    _assert_gf3_kernel_matches_the_oracle(rows, ncols)


def test_gf3_rank_bounds_the_edge_sum_rank_from_below():
    """On edge-sum systems with repeated vertices at ell 3 to 6, the GF(3)
    kernel matches the oracle and its rank is at most the rational one;
    a vertex three times in an edge makes it smaller on some of them."""
    rng = random.Random(22)
    below = 0
    for ell in (3, 4, 5, 6) * 15:
        h = random_multiset_instance(rng, ell, n_max=9, m_max=10)
        rows, _, _ = _edge_sum_system(h)
        rank = _assert_gf3_kernel_matches_the_oracle(rows, h.n_vertices + 1)
        rational = len(_forward_echelon(rows))
        assert rank <= rational
        below += rank < rational
    assert below > 0

