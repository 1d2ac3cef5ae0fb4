import dataclasses
import json
import random
import re
import tempfile
import time
from fractions import Fraction
from itertools import permutations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_chained_instance,
    random_connected_instance,
    random_covered_instance,
    random_engaged_map,
    random_loose_instance,
    random_loose_map,
    random_multiset_instance,
)
import hypersig.linalg
import hypersig.signals
from hypersig import (
    DisconnectedError,
    DomainError,
    FormatError,
    Hypergraph,
    HypersigError,
    LinearMap,
    NotEngagedError,
    Partition,
    Signal,
    arrangements,
    centroid_map,
    component_count_via_C,
    components,
    constant_space,
    embed_to_universal,
    fan,
    find_violation,
    frame,
    generating_signal,
    is_engaged,
    linear_map_from_json,
    load_signal,
    random_hypergraph,
    save_signal,
    signal_from_json,
    signal_space,
    universal_map,
    verify_signal,
)
from hypersig.linalg import _integral_rows
from hypersig.signals import (
    _basis_chunks,
    _rank_one_lift,
    _search_functional,
    _verified_basis,
)
from oracle import (
    assemble_constraints,
    dense_constraint_rows,
    dense_kernel,
    edge_loop_violation,
    flat,
    grid_search_functional,
    oracle_signal_basis,
    oracle_signal_dimension,
    signal_to_json,
    sparse_signal_basis,
)
from test_json_render import texts


def test_universal_map_matrix():
    t = universal_map(3)
    assert t.entries == ((1, 1, 1),)
    with pytest.raises(DomainError):
        universal_map(2)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_universal_kernel_dimension(ell):
    assert len(constant_space(universal_map(ell), 1)) == ell - 1


def test_universal_fixes_axis_indicators():
    t = universal_map(4)
    for a in range(4):
        unit = [0] * 4
        unit[a] = 1
        assert t.column(a) == (1,)


def test_centroid_map_matrix():
    t = centroid_map(3)
    assert t.entries == ((1, -1, 0), (0, 1, -1))
    with pytest.raises(DomainError):
        centroid_map(2)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_centroid_kernel_is_constants(ell):
    space = constant_space(centroid_map(ell), 2)
    assert len(space) == 1


def test_is_engaged():
    assert is_engaged(universal_map(3))
    for ell in (3, 4, 5):
        assert is_engaged(centroid_map(ell))
    assert not is_engaged(LinearMap([[1, 0, 1]]))


def test_assemble_triangle_universal(triangle):
    # columns 3a + x: the trace row (0,u) + (1,v) + (2,w), then the minor
    # rows (a, x) = (a, x) - (a, u) - (0, x) + (0, u) for a in 1, 2 and
    # x in v, w
    m = assemble_constraints(triangle, universal_map(3))
    assert m.nrows == 5
    assert m.rows == (
        ((0, 1), (4, 1), (8, 1)),
        ((0, 1), (1, -1), (3, -1), (4, 1)),
        ((0, 1), (2, -1), (3, -1), (5, 1)),
        ((0, 1), (1, -1), (6, -1), (7, 1)),
        ((0, 1), (2, -1), (6, -1), (8, 1)),
    )


def test_assemble_constant_edge_single_row():
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 0)])
    m = assemble_constraints(h, universal_map(3))
    # every vertex equals e[0], so every minor vanishes and only the trace
    # row remains: one coefficient per axis column (1,u),(2,u),(3,u), the
    # constraint delta1(u) + delta2(u) + delta3(u) = 0
    assert m.nrows == 1
    assert m.rows == (((0, 1), (2, 1), (4, 1)),)


def test_assemble_repeated_vertex_rows():
    # edge (u, u, v), columns 2a + x: the trace (0,u) + (1,u) + (2,v) and
    # one minor per axis a >= 1 for the one vertex v other than u
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    m = assemble_constraints(h, universal_map(3))
    assert m.nrows == 3
    assert m.rows == (
        ((0, 1), (2, 1), (5, 1)),
        ((0, 1), (1, -1), (2, -1), (3, 1)),
        ((0, 1), (1, -1), (4, -1), (5, 1)),
    )


def test_assemble_arity_mismatch(triangle):
    with pytest.raises(DomainError):
        assemble_constraints(triangle, universal_map(4))


def test_signal_space_dimensions(fan_five):
    assert len(signal_space(fan_five, universal_map(3))) == 4
    assert len(signal_space(fan_five, centroid_map(3))) == 1


def test_a_space_is_a_tuple_of_its_basis_signals(fan_five, skew_map):
    """Each space is its canonical basis, a tuple of ``Signal``s of the
    hypergraph's shape holding ``Fraction`` values, one zero shared by all."""
    n = fan_five.n_vertices
    for space in (signal_space(fan_five, universal_map(3)), constant_space(skew_map, n)):
        assert type(space) is tuple and space
        assert all(type(sig) is Signal and (sig.ell, sig.n_vertices) == (3, n) for sig in space)
        values = [v for sig in space for row in sig.values for v in row]
        assert {type(v) for v in values} == {Fraction}
        assert len({id(v) for v in values if not v}) == 1


def test_signal_space_contains_skew_signal(triangle, skew_map, skew_signal):
    assert verify_signal(triangle, skew_map, skew_signal)
    space = signal_space(triangle, skew_map)
    assert len(space) == oracle_signal_dimension(triangle, skew_map)


def test_constant_space_skew_map(skew_map):
    space = constant_space(skew_map, 3)
    assert len(space) == 2
    expected = Signal([[2, 2, 2], [1, 1, 1], [0, 0, 0]])
    assert any(sig == expected for sig in space)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("t", [universal_map(3), LinearMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
def test_constant_space_rejects_a_vertex_count_below_one(t, n):
    with pytest.raises(DomainError, match=f"vertex count must be >= 1, got {n}"):
        constant_space(t, n)


def test_constant_space_matches_the_dense_kernel_of_the_map():
    """On random rational maps, ell 3 to 6 with 1 to 4 rows, among them
    maps with a zero row or a zero column, the zero map and an invertible
    map, the constant space holds the dense Gauss-Jordan oracle's kernel
    of the map, each vector 1 at its free column, repeated over the
    vertices axis-major."""
    rng = random.Random(1919)
    maps = [LinearMap([[0] * 4] * 2), LinearMap([[2, 1, 0], [0, 1, 0], [1, 0, 3]])]
    for i in range(200):
        ell, r = rng.randint(3, 6), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ell)] for _ in range(r)]
        if i % 4 == 1:
            rows[rng.randrange(r)] = [0] * ell
        elif i % 4 == 2:
            z = rng.randrange(ell)
            for row in rows:
                row[z] = 0
        maps.append(LinearMap(rows))
    for t in maps:
        n = rng.randint(1, 5)
        kernel = dense_kernel([list(row) for row in t.entries], t.ell)
        expected = tuple(tuple(y for y in lam for _ in range(n)) for lam in kernel)
        assert tuple(map(flat, constant_space(t, n))) == expected, t


def test_constant_signals_admissible_for_any_hypergraph(fan_five, skew_map):
    for sig in constant_space(skew_map, fan_five.n_vertices):
        assert verify_signal(fan_five, skew_map, sig)
    for sig in constant_space(universal_map(3), fan_five.n_vertices):
        assert verify_signal(fan_five, universal_map(3), sig)


def test_verify_zero_signal(fan_five):
    zero = Signal([[0] * 5] * 3)
    assert verify_signal(fan_five, universal_map(3), zero)
    assert verify_signal(fan_five, centroid_map(3), zero)


@pytest.mark.parametrize(
    "rows, values, witness",
    [
        ([[1, 1, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]], ((0, 1, 2), (0, 1, 2), 0)),
        # map row 0 vanishes on every arrangement; map row 1 first fails at
        # the fourth arrangement (1, 2, 0), the first that puts vertex 0 on
        # the last axis
        (
            [[Fraction(1, 2), Fraction(-1, 2), 0], [Fraction(1, 2), 0, Fraction(-1, 3)]],
            [[2, 2, 2], [2, 2, 2], [5, 3, 3]],
            ((0, 1, 2), (1, 2, 0), 1),
        ),
    ],
    ids=["universal", "two-row-rational"],
)
def test_verify_rejects_indicator(triangle, rows, values, witness):
    t, sig = LinearMap(rows), Signal(values)
    assert not verify_signal(triangle, t, sig)
    assert find_violation(triangle, t, sig) == witness


def dense_witness(h, t, s):
    """First violated (edge, arrangement, map row), in find_violation's
    order, from the oracle's dense rows with Fraction arithmetic."""
    flat = [v for row in s.values for v in row]
    rows = iter(dense_constraint_rows(h, t))
    violated = set()
    for k, e in enumerate(h.edges):
        for sigma in permutations(range(h.ell)):
            arr = tuple(e[j] for j in sigma)
            for i in range(t.r):
                if sum(c * v for c, v in zip(next(rows), flat) if c):
                    violated.add((k, arr, i))
    if not violated:
        return None
    k, arr, i = min(violated)
    return h.edges[k], arr, i


def test_find_violation_matches_dense_fraction_loop():
    """The integer verifier reports the same witness, or None, as a plain
    Fraction loop over every dense constraint row: rational combinations of
    basis signals, some perturbed at one or two coordinates, under
    multi-row rational maps."""
    rng = random.Random(5154)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    outcomes = set()
    for ell in (3,) * 12 + (4,) * 6 + (5,) * 2 + (6,) * 2:
        if ell == 3 and rng.random() < 0.5:
            h = random_connected_instance(rng, n_max=7, m_max=6)
        elif ell == 6:
            h = random_multiset_instance(rng, ell, n_max=4, m_max=2)
        else:
            h = random_multiset_instance(rng, ell, n_max=5, m_max=3)
        r = rng.choice((1, 2, 3))
        t = LinearMap([[rational() for _ in range(ell)] for _ in range(r)])
        # signals admissible for the first map row alone make later rows
        # report the witness
        first_row = LinearMap(t.entries[:1])
        bases = [signal_space(h, t), signal_space(h, first_row)]
        for j in range(4):
            basis = bases[j % 2]
            values = [[Fraction(0)] * h.n_vertices for _ in range(ell)]
            for sig in rng.sample(basis, min(len(basis), 2)):
                c = rational()
                for a in range(ell):
                    for x in range(h.n_vertices):
                        values[a][x] += c * sig.values[a][x]
            for _ in range(rng.choice((0, 1, 2))):
                values[rng.randrange(ell)][rng.randrange(h.n_vertices)] += rational()
            s = Signal(values)
            witness = find_violation(h, t, s)
            assert witness == dense_witness(h, t, s)
            outcomes.add(witness is None)
    assert outcomes == {True, False}


def arrangement_witness(h, t, s):
    """First violated (edge, arrangement, map row) by enumerating each
    edge's distinct arrangements in lexicographic order."""
    for e in h.edges:
        for arr in arrangements(e):
            for i, w in enumerate(t.entries):
                if sum(c * s.values[a][x] for a, (c, x) in enumerate(zip(w, arr))):
                    return e, arr, i
    return None


def test_witness_locator_matches_arrangement_enumeration_on_deep_witnesses():
    """One-edge instances at ell 3 to 6, repeated vertices allowed, whose
    signals make A[a][j] = w_a * s_a(e[j]) a sum matrix of zero trace
    perturbed at one or two (axis, vertex) coordinates, (0, e[0]) and
    (1, e[1]) the likeliest. Half of them have s_0 shifted so that the
    first arrangement holds, which puts the first violating arrangement
    up to (ell-1)! places down the lexicographic order. The map is one
    nonzero row, alone or with a zero row or a multiple of it."""
    rng = random.Random(6120)
    depths = set()
    for ell in (3,) * 60 + (4,) * 60 + (5,) * 40 + (6,) * 20:
        n = rng.randint(2, 2 * ell)
        e = tuple(sorted(rng.choices(range(n), k=ell)))
        h = Hypergraph.build(ell, [f"x{i}" for i in range(n)], [e])
        w = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(ell)]
        p = [rng.randint(-3, 3) for _ in range(ell)]
        q = [rng.randint(-3, 3) for _ in range(n)]
        p[0] -= sum(p) + sum(q[x] for x in e)
        values = [[Fraction(p[a] + q[x]) / w[a] for x in range(n)] for a in range(ell)]
        for _ in range(rng.choice((1, 1, 1, 2))):
            a, x = rng.choice(((0, e[0]),) * 2 + ((1, e[1]), (rng.randrange(ell), rng.choice(e))))
            values[a][x] += rng.choice((-1, 1))
        if rng.random() < 0.5:  # shift s_0 so that the identity arrangement holds
            trace = sum(w[a] * values[a][x] for a, x in enumerate(e))
            values[0] = [v - trace / w[0] for v in values[0]]
        rows = rng.choice(([w], [[0] * ell, w], [w, [2 * c for c in w]]))
        t, sig = LinearMap(rows), Signal(values)
        witness = find_violation(h, t, sig)
        assert witness == arrangement_witness(h, t, sig)
        if witness is not None:
            depths.add(arrangements(e).index(witness[1]))
    assert max(depths) >= 24 and len(depths) > 10


@pytest.mark.parametrize(
    "first, expected",
    [
        # s_0(e[0]) = 1 breaks the trace: the first arrangement fails
        ([1] + [0] * 11, tuple(range(12))),
        # A[0][j] = -1 for j >= 1 and A[0][0] = 0: a sum matrix of trace -1
        # with 1 added at A[0][0], so an arrangement fails iff it moves e[0]
        # off position 0, and the first that does is at index 11!
        ([0] + [-1] * 11, (1, 0) + tuple(range(2, 12))),
    ],
)
def test_witness_locator_at_ell_12_builds_no_arrangement_list(first, expected):
    h = Hypergraph.build(12, [f"x{i}" for i in range(12)], [tuple(range(12))])
    sig = Signal([first] + [[0] * 12] * 11)
    start = time.perf_counter()
    assert find_violation(h, universal_map(12), sig) == (tuple(range(12)), expected, 0)
    assert time.perf_counter() - start < 1


def test_find_violation_sum_matrix_test_catches_trace_and_single_minor():
    """On the ell = 4 edge (u, u, v, w), a signal that breaks only the
    trace row and one that breaks only the minor row (a, x) = (2, w), each
    added to an admissible signal, are reported at dense_witness's (edge,
    arrangement, map row)."""
    h = Hypergraph.build(4, ["u", "v", "w"], [(0, 0, 1, 2)])
    # map row 0 scales to (3, 18, -4, 6); map row 1 reads axis 0 only
    t = LinearMap([[Fraction(1, 2), 3, Fraction(-2, 3), 1], [1, 0, 0, 0]])
    basis = signal_space(h, t)
    assert basis
    rows = assemble_constraints(h, t).rows

    def plus_base(perturbation):
        return Signal(
            [
                [p + sum(sig.values[a][x] for sig in basis) for x, p in enumerate(row)]
                for a, row in enumerate(perturbation)
            ]
        )

    def broken_rows(sig):
        flat = [v for row in sig.values for v in row]
        return [r for r in rows if sum(c * flat[k] for k, c in r)]

    # s_1 = 1 everywhere: A = p_a + q_j with p = (0, 18, 0, 0) and q = 0, a
    # sum matrix whose trace is 18, so every arrangement fails
    only_trace = plus_base([[0] * 3, [1] * 3, [0] * 3, [0] * 3])
    assert broken_rows(only_trace) == [rows[0]]
    # s_2(w) = 7 moves only A[2][3]: the trace reads s_2(v), and only the
    # minor (2, w), columns 3a + x, reads s_2(w)
    only_minor = plus_base([[0] * 3, [0] * 3, [0, 0, 7], [0] * 3])
    assert broken_rows(only_minor) == [((0, 3), (2, -3), (6, 4), (8, -4))]
    for sig, arrangement in ((only_trace, (0, 0, 1, 2)), (only_minor, (0, 0, 2, 1))):
        witness = find_violation(h, t, sig)
        assert witness == dense_witness(h, t, sig)
        assert witness == ((0, 0, 1, 2), arrangement, 0)


def integer_table(sig):
    """The signal's values over the lcm of their denominators, the
    integer table find_violation checks."""
    scale = lcm(*(v.denominator for row in sig.values for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in sig.values]


def test_violation_matches_the_edge_loop_reference():
    """The columnar verifier reports the edge loop's whole witness, or
    None, on seeded inputs (ell 3-6, n <= 40, m <= 80, every other one
    with repeated vertices) under 1-3 integer map rows with zero entries,
    a quarter of them with a zero row. The signals are integer
    combinations of basis signals admissible under the whole map or under
    its first row alone (so later rows fail), perturbed at 0-2 vertices
    first met in the edge list's second half, so that the first failing
    edge is often deep."""
    rng = random.Random(2323)
    passed, deep, rows = 0, 0, set()
    for i in range(60):
        ell = rng.randint(3, 6)
        n = rng.randint(ell + 4, 40)
        m = rng.randint(-(-(n - 1) // (ell - 1)), min(80, 2 * n))
        h = random_chained_instance(rng, ell, n, m, repeats=i % 2 == 1)
        maps = [[rng.choice((-2, -1, 0, 1, 1, 2, 3)) for _ in range(ell)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            maps[rng.randrange(len(maps))] = [0] * ell
        t = LinearMap(maps)
        first_edge = {}
        for k, e in enumerate(h.edges):
            first_edge.update((x, k) for x in e if x not in first_edge)
        late = [x for x, k in first_edge.items() if k >= m // 2] or list(first_edge)
        bases = [signal_space(h, t), signal_space(h, LinearMap(t.entries[:1]))]
        for j in range(4):
            values = [[0] * n for _ in range(ell)]
            for sig in rng.sample(bases[j % 2], min(len(bases[j % 2]), 2)):
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                for a, row in enumerate(integer_table(sig)):
                    values[a] = [v + c * y for v, y in zip(values[a], row)]
            for _ in range(rng.choice((0, 1, 2))):
                values[rng.randrange(ell)][rng.choice(late)] += rng.choice((-1, 1))
            witness = hypersig.signals._violation(h, maps, values)
            assert witness == edge_loop_violation(h, maps, values)
            if witness is None:
                passed += 1
            else:
                deep += h.edges.index(witness[0]) >= m / 2
                rows.add(witness[2])
    assert passed > 40 and deep > 20 and rows == {0, 1, 2}


def test_violation_names_the_earlier_edge_of_a_later_map_row():
    """Map row 1 fails at the second edge, row 0 only at the third: the
    witness is the second edge, with row 1."""
    h = Hypergraph.build(3, [f"x{i}" for i in range(5)], [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    maps = [[0, 1, -1], [1, 0, 0]]
    values = [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5]
    assert edge_loop_violation(h, maps[:1], values)[0] == (2, 3, 4)
    witness = ((1, 2, 3), (3, 1, 2), 1)
    assert hypersig.signals._violation(h, maps, values) == witness
    assert edge_loop_violation(h, maps, values) == witness


def test_violation_finds_a_failure_at_the_last_edge_only():
    h = Hypergraph.build(3, [f"x{i}" for i in range(7)], [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    sig = Signal([[0] * 6 + [1], [0] * 7, [0] * 7])
    assert find_violation(h, universal_map(3), sig) == ((4, 5, 6), (6, 4, 5), 0)
    assert find_violation(h, universal_map(3), sig) == dense_witness(h, universal_map(3), sig)


def test_violation_on_an_edge_free_hypergraph_is_none():
    h = Hypergraph.build(3, ["a", "b"], [])
    assert hypersig.signals._violation(h, [[1, 2, 3]], [[1, 2], [3, 4], [5, 6]]) is None
    assert find_violation(h, centroid_map(3), Signal([[1, 2], [3, 4], [5, 6]])) is None


def test_violation_under_a_map_with_a_zero_column():
    """Under the row (2, -1, 0) axis 2 is free, so its values never fail;
    s_1 moved at vertex 2 fails the second arrangement of the first edge."""
    h = Hypergraph.build(3, [f"x{i}" for i in range(7)], [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    t = LinearMap([[2, -1, 0]])
    sig = Signal([[1] * 7, [2] * 7, range(7)])
    assert find_violation(h, t, sig) is None
    moved = Signal([[1] * 7, [2, 2, 3, 2, 2, 2, 2], range(7)])
    assert find_violation(h, t, moved) == ((0, 1, 2), (0, 2, 1), 0)
    assert find_violation(h, t, moved) == dense_witness(h, t, moved)


def test_check_basis_raises_with_the_first_witness():
    h = Hypergraph.build(3, [f"x{i}" for i in range(5)], [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    maps = [[0, 1, -1], [1, 0, 0]]
    admissible = [[0] * 5, [1] * 5, [1] * 5]
    failing = [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5]
    hypersig.signals._check_basis(h, maps, [admissible])
    message = "internal error: basis signal fails at ((1, 2, 3), (3, 1, 2), 1)"
    with pytest.raises(HypersigError, match=f"^{re.escape(message)}$"):
        hypersig.signals._check_basis(h, maps, [admissible, failing])


def test_verify_shape_mismatch(triangle):
    with pytest.raises(DomainError):
        verify_signal(triangle, universal_map(3), Signal([[0] * 4] * 3))


def test_component_count_examples(fan_five):
    assert component_count_via_C(fan_five) == 1
    k = 4
    labels = [f"t{i}{c}" for i in range(k) for c in "abc"]
    edges = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)]
    h = Hypergraph.build(3, labels, edges)
    assert component_count_via_C(h) == k


def test_component_count_matches_union_find_on_random_instances():
    rng = random.Random(20260810)
    for _ in range(40):
        h = random_covered_instance(rng)
        assert component_count_via_C(h) == components(h).n_classes


def test_component_count_reads_the_verified_basis(monkeypatch):
    """The count is the length of the verified integer basis: no
    ``Fraction`` space is built for it, and the basis is still
    re-verified."""

    def no_space(*args):
        raise AssertionError("component_count_via_C built Fraction signals")

    monkeypatch.setattr(hypersig.signals, "_space", no_space)
    h = Hypergraph.build(3, tuple("abcdefgh"), [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
    assert component_count_via_C(h) == 2
    basis = hypersig.signals._closed_form_basis

    def changed(*args):
        vectors = basis(*args)
        vectors[0][0][0][0] += 1
        return vectors

    monkeypatch.setattr(hypersig.signals, "_closed_form_basis", changed)
    with pytest.raises(HypersigError, match="^internal error: basis signal fails"):
        component_count_via_C(h)


def test_full_assembly_counts_components_under_C():
    """``component_count_via_C`` reads its dimension off the closed form,
    which is built from the union-find components; the full assembly
    counts the components independently, on covered inputs."""
    rng = random.Random(20261018)
    for _ in range(40):
        h = random_covered_instance(rng)
        assert len(sparse_signal_basis(h, centroid_map(3))) == components(h).n_classes


def test_embed_universal_signal_is_unscaled(fan_five):
    space = signal_space(fan_five, universal_map(3))
    for sig in space:
        assert embed_to_universal(fan_five, universal_map(3), sig) == sig


def test_embed_skew_signal(triangle, skew_map, skew_signal):
    out = embed_to_universal(triangle, skew_map, skew_signal)
    assert verify_signal(triangle, universal_map(3), out)


def test_embed_constant_signal_stays_constant(triangle, skew_map):
    for sig in constant_space(skew_map, 3):
        out = embed_to_universal(triangle, skew_map, sig)
        assert verify_signal(triangle, universal_map(3), out)
        for row in out.values:
            assert len(set(row)) == 1


def test_embedded_signal_that_fails_reverification_is_an_internal_error(
    triangle, skew_map, skew_signal, monkeypatch
):
    """The embedded signal is re-verified under the coordinate-sum map.
    Each of its constraints is ``w`` applied to the map's own, so only a
    wrong verifier fails it: the second verification, patched to fail,
    raises the internal error."""
    real = hypersig.signals.verify_signal
    calls = []

    def second_fails(h, t, s):
        calls.append(t)
        return real(h, t, s) and len(calls) < 2

    monkeypatch.setattr(hypersig.signals, "verify_signal", second_fails)
    message = "internal error: embedded signal fails verification"
    with pytest.raises(HypersigError, match=f"^{re.escape(message)}$"):
        embed_to_universal(triangle, skew_map, skew_signal)
    assert calls == [skew_map, universal_map(3)]


def test_search_functional_matches_grid_enumeration():
    """The depth-first search returns the grid enumeration's w, on the
    centroid maps and on random engaged rational maps with 1 to 5 rows."""
    rng = random.Random(4242)
    maps = [centroid_map(ell) for ell in range(3, 10)]
    while len(maps) < 300:
        ell, r = rng.randint(3, 6), rng.randint(1, 5)
        values = (0, 0, 1, -1, 2, -2, 3)
        t = LinearMap(
            [[Fraction(rng.choice(values), rng.randint(1, 2)) for _ in range(ell)] for _ in range(r)]
        )
        if is_engaged(t):
            maps.append(t)
    for t in maps:
        assert _search_functional(t) == grid_search_functional(t), t


def test_embed_requires_engaged(triangle):
    t = LinearMap([[1, 0, 1]])
    sig = Signal([[0] * 3] * 3)
    with pytest.raises(NotEngagedError) as err:
        embed_to_universal(triangle, t, sig)
    assert err.value.axis == 1


def test_embed_requires_admissible(triangle, skew_map):
    bad = Signal([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(DomainError):
        embed_to_universal(triangle, skew_map, bad)


def test_generating_signal_triangle_separates_vertices(triangle):
    delta = generating_signal(triangle)
    assert len(set(delta.values[0])) == 3


def test_generating_signal_fan_level_sets(fan_five):
    delta = generating_signal(fan_five)
    row = delta.values[0]
    assert row[1] == row[3] and row[2] == row[4]
    assert len({row[0], row[1], row[2]}) == 3
    assert verify_signal(fan_five, universal_map(3), delta)


def test_generating_signal_requires_connected():
    h = Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(DisconnectedError):
        generating_signal(h)


def test_generating_signal_matches_basis_refinement_on_random_instances():
    rng = random.Random(81025)
    for _ in range(200):
        h = random_connected_instance(rng, n_max=10, m_max=10)
        delta = generating_signal(h)
        assert Partition.from_keys(delta.values[0]) == frame(h).fusion


def test_universal_basis_axes_differ_by_constants():
    rng = random.Random(5150)
    for _ in range(25):
        h = random_connected_instance(rng, n_max=9, m_max=9)
        for sig in signal_space(h, universal_map(3)):
            base = sig.values[0]
            for a in range(1, 3):
                diffs = {sig.values[a][x] - base[x] for x in range(h.n_vertices)}
                assert len(diffs) == 1


def test_centroid_basis_signals_are_flat():
    rng = random.Random(5151)
    for _ in range(25):
        h = random_connected_instance(rng, n_max=9, m_max=9)
        for sig in signal_space(h, centroid_map(3)):
            assert len({v for row in sig.values for v in row}) == 1


def test_dimension_lower_bound_from_kernel():
    rng = random.Random(5152)
    for _ in range(30):
        h = random_connected_instance(rng, n_max=8, m_max=8)
        t = random_engaged_map(rng)
        dim = len(signal_space(h, t))
        assert dim >= len(constant_space(t, h.n_vertices))


def test_sparse_dimension_matches_dense_oracle_on_random_maps():
    """The whole canonical basis, not just its size, equals the dense
    Gauss-Jordan oracle's, at ell 3 to 6 and under integer and rational
    maps; also on inputs that are disconnected, leave a vertex in no edge
    or hold a one-vertex edge, and under maps with a zero column and the
    zero map."""
    rng = random.Random(5153)
    for i, ell in enumerate((3,) * 25 + (4,) * 6 + (5,) * 2 + (6,) * 2):
        if ell == 3:
            h = random_connected_instance(rng, n_max=6, m_max=5)
        elif ell == 6:
            h = random_multiset_instance(rng, ell, n_max=4, m_max=2)
        else:
            h = random_multiset_instance(rng, ell)
        t = random_engaged_map(rng, ell)
        if i % 2:
            t = LinearMap([[Fraction(v, rng.randint(2, 5)) for v in row] for row in t.entries])
        assert [list(flat(s)) for s in signal_space(h, t)] == oracle_signal_basis(h, t)
    loose = [
        (Hypergraph.build(3, tuple("abcdef"), [(0, 1, 2), (3, 4, 5)]), universal_map(3)),
        (Hypergraph.build(3, tuple("abcde"), [(0, 1, 2), (1, 2, 3)]), centroid_map(3)),
        (Hypergraph.build(3, tuple("abcd"), [(0, 0, 0), (0, 1, 2)]), LinearMap([[1, -2, 1]])),
        (Hypergraph.build(4, tuple("abcde"), [(1, 1, 1, 1), (0, 2, 3, 3)]), universal_map(4)),
        (Hypergraph.build(3, tuple("abcde"), [(0, 1, 2), (2, 3, 4)]), LinearMap([[1, 2, 0]])),
        (Hypergraph.build(4, tuple("abcde"), [(0, 0, 1, 2)]), LinearMap([[0, 1, -1, 0]])),
        (Hypergraph.build(3, tuple("abcd"), [(0, 1, 1)]), LinearMap([[0, 0, 0]])),
    ]
    for ell in (3,) * 20 + (4,) * 8 + (5,) * 3:
        h = random_loose_instance(rng, ell, n_max=6 if ell < 5 else 4, m_max=4 if ell < 5 else 2)
        loose.append((h, random_loose_map(rng, ell)))
    for h, t in loose:
        assert [list(flat(s)) for s in signal_space(h, t)] == oracle_signal_basis(h, t), (h, t)


def _skew(rng: random.Random, ell: int) -> LinearMap:
    """Two rational rows summing to zero, as in the signals-maps workload."""
    rows = []
    for _ in range(2):
        row = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(ell - 1)]
        rows.append(row + [-sum(row)])
    return LinearMap(rows)


@pytest.mark.parametrize("ell,n,m", [(3, 30, 24), (4, 20, 14), (5, 12, 8), (6, 10, 6)])
def test_signal_space_matches_full_assembly_at_benchmark_sizes(ell, n, m):
    """At signals-maps sizes the reduced system's basis equals the
    canonical kernel of the full sum-matrix assembly on all ``ell * n``
    coordinates, on connected, repeated-vertex and disconnected inputs,
    under U, C, a two-row skew map and maps with a zero column."""
    rng = random.Random(9000 + ell)
    inputs = [random_hypergraph(n, m, ell, rng.randrange(2**32))]
    inputs += [random_loose_instance(rng, ell, n_max=n, m_max=m) for _ in range(2)]
    maps = [universal_map(ell), centroid_map(ell), _skew(rng, ell)]
    maps += [LinearMap([[1] * (ell - 1) + [0]]), random_loose_map(rng, ell)]
    for h in inputs:
        for t in maps:
            assert tuple(map(flat, signal_space(h, t))) == sparse_signal_basis(h, t), (h, t)


def _with_repeats(rng: random.Random, h: Hypergraph, k: int) -> Hypergraph:
    """``h`` plus ``k`` edges that repeat a vertex, as some signals-maps
    inputs have; still connected when ``h`` is."""
    extra = []
    for _ in range(k):
        e = rng.sample(range(h.n_vertices), h.ell)
        e[1] = e[0]
        extra.append(e)
    return Hypergraph.build(h.ell, h.vertices, [*h.edges, *extra])


def test_signal_space_solves_no_vertex_system_outside_rank_one(monkeypatch):
    """Under C, a two-row rational map and a random rank-3 map, the basis
    comes from the closed form: with ``_kernel_basis`` raising on
    every system but the map's own rows (its kernel gives the constants),
    ``signal_space`` still equals the full assembly. Inputs are
    signals-maps-shaped (ell 3-5, repeated vertices), plus a disconnected
    one with a vertex in no edge."""
    rng = random.Random(15)
    cases = []
    for ell, n, m in ((3, 30, 24), (4, 20, 14), (5, 12, 8)):
        h = _with_repeats(rng, random_hypergraph(n, m, ell, rng.randrange(2**32)), 4)
        skew = _skew(rng, ell)
        while not is_engaged(skew) or _rank_one_lift(_integral_rows(skew.entries)):
            skew = _skew(rng, ell)
        while True:
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ell)]
                    for _ in range(3)]
            if len(dense_kernel(rows, ell)) == ell - 3:
                break
        cases += [(h, centroid_map(ell)), (h, skew), (h, LinearMap(rows))]
    split = Hypergraph.build(4, tuple("abcdefgh"), [(0, 0, 1, 2), (1, 2, 2, 3), (5, 6, 7, 7), (5, 5, 6, 7)])
    cases += [(split, centroid_map(4)), (split, LinearMap([[1, -2, 1, 0], [0, 1, -1, 3]]))]
    expected = [sparse_signal_basis(h, t) for h, t in cases]
    allowed = {
        tuple(tuple((a, y) for a, y in enumerate(r) if y) for r in _integral_rows(t.entries))
        for _, t in cases
    }
    kernel_basis = hypersig.signals._kernel_basis

    def only_the_map(rows, ncols):
        rows = tuple(rows)
        if rows not in allowed:
            raise AssertionError("signal_space eliminated a system over the vertices")
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(hypersig.signals, "_kernel_basis", only_the_map)
    for (h, t), basis in zip(cases, expected):
        assert tuple(map(flat, signal_space(h, t))) == basis, (h, t)


def test_signal_space_converts_the_map_to_integers_once(monkeypatch):
    """The closed form reads the map's kernel off the integer rows that
    ``signal_space`` builds for the re-verification."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return _integral_rows(rows)

    monkeypatch.setattr(hypersig.signals, "_integral_rows", counted)
    monkeypatch.setattr(hypersig.linalg, "_integral_rows", counted)
    signal_space(fan(5), centroid_map(3))
    assert len(calls) == 1


def _assert_canonical(vectors) -> None:
    """Each vector is 1 at its last nonzero coordinate, its pivot, every
    other vector is 0 there, and the pivots ascend."""
    pivots = []
    for v in vectors:
        p = max(c for c, x in enumerate(v) if x)
        assert v[p] == 1
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for p in pivots:
        assert sum(1 for v in vectors if v[p]) == 1


def test_signal_space_is_canonical_beyond_the_oracle_sizes():
    """The rank-1 system's one-hot kernel vectors expand to the canonical
    basis as they are, at a size the full-assembly oracle does not reach:
    n = 240 under U (dimension 34) and a rational rank-1 map with a
    negative entry, and a disconnected ell = 4 input with a vertex in no
    edge, under those maps and C."""
    big = random_hypergraph(240, 208, 3, 1)
    rank_one = LinearMap([[Fraction(1, 2), -3, 2]])
    assert len(signal_space(big, universal_map(3))) == 34
    cases = [(big, universal_map(3)), (big, rank_one)]
    halves = [random_hypergraph(30, 14, 4, seed) for seed in (2, 3)]
    edges = [*halves[0].edges, *(tuple(x + 31 for x in e) for e in halves[1].edges)]
    split = Hypergraph.build(4, [f"v{i}" for i in range(61)], edges)
    assert components(split).n_classes == 3
    rank_one = LinearMap([[2, -1, Fraction(1, 3), 1], [-4, 2, Fraction(-2, 3), -2]])
    cases += [(split, universal_map(4)), (split, rank_one), (split, centroid_map(4))]
    for h, t in cases:
        _assert_canonical(tuple(map(flat, signal_space(h, t))))


@st.composite
def signal_problems(draw):
    ell = draw(st.integers(3, 5))
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(vertex, min_size=ell, max_size=ell), max_size=5))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(st.lists(st.lists(value, min_size=ell, max_size=ell), min_size=1, max_size=3))
    return Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges), LinearMap(rows)


@given(signal_problems())
@settings(max_examples=80, deadline=None)
def test_signal_space_matches_full_assembly_hypothesis(problem):
    h, t = problem
    assert tuple(map(flat, signal_space(h, t))) == sparse_signal_basis(h, t)


@pytest.mark.parametrize(
    "rows",
    [[[1, 1, 1]], [[1, -1, 0], [0, 1, -1]], [[1, -2, 1]], [[1, 1, 0]], [[1, -2, 1], [0, 1, -1]]],
    ids=["U", "C", "skew", "zero-column", "rank-2"],
)
def test_signal_space_check_catches_one_changed_basis_integer(fan_five, rows, monkeypatch):
    """The re-verification sees the integer tables the basis is built
    from: one integer of one vector changed, at vertex 0 on axis 0 (a
    covered vertex on a constrained axis), fails the check. The builder
    changed is the one the map's case selects."""
    t = LinearMap(rows)
    rank_one = _rank_one_lift(_integral_rows(t.entries)) is not None
    name = "_rank_one_basis" if rank_one else "_closed_form_basis"
    basis = getattr(hypersig.signals, name)

    def changed(h, *args):
        vectors = basis(h, *args)
        vectors[0][0][0][0] += 1
        return vectors

    monkeypatch.setattr(hypersig.signals, name, changed)
    with pytest.raises(HypersigError, match="^internal error: basis signal fails"):
        signal_space(fan_five, t)


def test_signal_json_roundtrip(tmp_path, triangle, skew_signal):
    # labels that need escaping (a non-BMP character and a lone surrogate
    # included) and negative fractional values
    labels = ["%s", '"', "\\", "a\nb", "\U0001f4a1", "\ud83d"]
    hostile = Hypergraph.build(3, labels, [(0, 1, 2), (3, 4, 5)])
    values = [[Fraction(-1, 2), 0, Fraction(7, 3), -4, Fraction(-9, 8), 1]] * 3
    path = tmp_path / "sig.json"
    for h, s in [(triangle, skew_signal), (hostile, Signal(values))]:
        save_signal(h, s, path)
        assert path.read_text(encoding="utf-8") == json.dumps(signal_to_json(h, s), indent=2) + "\n"
        vertices, ell, sig = load_signal(path)
        assert vertices == h.vertices
        assert ell == 3
        assert sig == s


def test_signal_json_uses_rational_strings(triangle):
    sig = Signal([[Fraction(1, 2), 0, 0], [0, 0, 0], [Fraction(-1, 2), 0, 0]])
    doc = signal_to_json(triangle, sig)
    assert doc["values"][0][0] == "1/2"
    assert doc["values"][2][0] == "-1/2"
    assert signal_from_json(doc)[2] == sig
    # JSON integers and unreduced fractions are accepted too
    doc["values"][1][:3] = [7, "-2/4", "0"]
    assert signal_from_json(doc)[2].values[1] == (7, Fraction(-1, 2), 0)


@st.composite
def written_bases(draw):
    """An input with labels that stress escaping, repeated vertices,
    vertices in no edge and several components, and a map of one of the
    kinds that decide the basis's shape: U, C, rank 1 with negative and
    fractional entries (one or two rows), two rows of rank 2, a zero
    column, and the identity."""
    ell = draw(st.integers(3, 5))
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(texts, min_size=n, max_size=n, unique=True))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(vertex, min_size=ell, max_size=ell), max_size=5))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    row = st.lists(value, min_size=ell, max_size=ell)
    kind = draw(st.sampled_from(["U", "C", "rank-1", "rank-2", "zero-column", "identity"]))
    if kind == "U":
        t = universal_map(ell)
    elif kind == "C":
        t = centroid_map(ell)
    elif kind == "rank-1":
        v = draw(st.lists(value.filter(bool), min_size=ell, max_size=ell))
        scales = draw(st.lists(value.filter(bool), max_size=1))
        t = LinearMap([v, *([c * x for x in v] for c in scales)])
    elif kind == "rank-2":
        t = LinearMap(draw(st.lists(row, min_size=2, max_size=2)))
    elif kind == "zero-column":
        rows, z = draw(st.lists(row, min_size=1, max_size=2)), draw(st.integers(0, ell - 1))
        t = LinearMap([[0 if a == z else x for a, x in enumerate(r)] for r in rows])
    else:
        t = LinearMap([[int(a == b) for b in range(ell)] for a in range(ell)])
    return Hypergraph.build(ell, labels, edges), t


@given(written_bases())
@example((fan(5), LinearMap([[Fraction(1, 2), -3, 2]])))  # pivot values -2, 3, 3, 3
@example((fan(5), LinearMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))  # dim 0
@example((Hypergraph.build(3, ["%s", '"', "\\"], []), universal_map(3)))
@settings(max_examples=200, deadline=None)
def test_basis_chunks_match_the_rendered_signal_documents(problem):
    """The streamed ``signals --out`` text equals ``json.dumps`` at indent
    2, plus a newline, of the :func:`signal_to_json` documents of the
    space's ``Fraction`` signals, whatever the sign of the pivot values and
    the dimension, 0 included; ``save_signal`` writes each of them as its
    own file."""
    h, t = problem
    text = "".join(_basis_chunks(h, _verified_basis(h, t)[0]))
    space = signal_space(h, t)
    docs = [signal_to_json(h, s) for s in space]
    assert text == json.dumps(docs, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "s.json"
        for s, doc in zip(space, docs):
            save_signal(h, s, path)
            assert path.read_text(encoding="ascii") == json.dumps(doc, indent=2) + "\n"


def test_basis_chunks_are_one_per_document():
    """Each document is its own chunk, so a file takes it as it is
    rendered; the closing bracket comes last."""
    t = LinearMap([[Fraction(1, 2), -3, 2]])
    basis = _verified_basis(fan(5), t)[0]
    assert [d for _, d in basis] == [-2, 3, 3, 3]
    chunks = list(_basis_chunks(fan(5), basis))
    assert len(chunks) == 5 and chunks[-1] == "\n]\n"
    assert [json.loads(c.lstrip("[,")) for c in chunks[:-1]] == json.loads("".join(chunks))
    assert list(_basis_chunks(fan(5), [])) == ["[]\n"]


@pytest.mark.parametrize(
    "value",
    [0.5, True, False, None, " 3 ", "1.5", "1e3", "+3", "3/", "/3", "1/-2", "1/0", "\u0663",
     pytest.param("9" * 5000, id="'9'*5000")],
    ids=repr,
)
def test_signal_json_rejects_floats(triangle, value):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["values"][0][0] = value
    with pytest.raises(FormatError, match=re.escape(repr(value))):
        signal_from_json(doc)
    with pytest.raises(FormatError, match=re.escape(repr(value))):
        linear_map_from_json([["1", value, "1"]])


@pytest.mark.parametrize("first", [1, "1"], ids=repr)
def test_signal_json_rejects_true_after_one(triangle, first):
    """The parse memo is keyed on strings only: true == 1 and both hash
    alike, so a memo of every value would take true for a parsed 1."""
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["values"][0][:2] = [first, True]
    with pytest.raises(FormatError, match="invalid rational True"):
        signal_from_json(doc)


@pytest.mark.parametrize("value", [[1], {"1": 1}, ["1"]], ids=repr)
def test_signal_json_rejects_unhashable_values(triangle, value):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["values"][1][1:] = [value, value]
    with pytest.raises(FormatError, match=re.escape(repr(value))):
        signal_from_json(doc)


def test_signal_json_spellings_of_one_value_parse_equal(triangle):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["values"] = [["1/2", "2/4", str(Fraction(1, 2))], ["01/02", "1/2", "-0"], [0, "0", "-0"]]
    values = signal_from_json(doc)[2].values
    assert values == ((Fraction(1, 2),) * 3, (Fraction(1, 2), Fraction(1, 2), 0), (0, 0, 0))
    assert all(type(v) is Fraction for row in values for v in row)


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5"], ids=repr)
def test_signal_json_names_a_repeated_bad_string(triangle, bad):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["values"][2] = ["1", bad, bad]
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        signal_from_json(doc)


def test_signal_json_rejects_bool_arity(triangle):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc["ell"] = True
    doc["values"] = doc["values"][:1]
    with pytest.raises(FormatError, match="'ell' must be an integer"):
        signal_from_json(doc)


SHAPE_FAULTS = {
    "vertices": "'vertices' must be an array of strings",
    "values": "'values' must hold one array per axis",
    "row": "each value array must align with the vertex list",
}


@pytest.mark.parametrize(
    "field,value,fault",
    [
        ("vertices", ["u", 1, "w"], "vertices"),
        ("vertices", "uvw", "vertices"),
        ("values", [["0"] * 3] * 2, "values"),
        ("values", "000", "values"),
        ("values", [["0"] * 3, ["0"] * 2, ["0"] * 3], "row"),
        ("values", [["0"] * 3, "000", ["0"] * 3], "row"),
    ],
    ids=["label", "vertices", "two-rows", "values", "short-row", "string-row"],
)
def test_signal_json_shape_messages(triangle, field, value, fault):
    doc = signal_to_json(triangle, Signal([[0] * 3] * 3))
    doc[field] = value
    with pytest.raises(FormatError, match=f"^{re.escape(SHAPE_FAULTS[fault])}$"):
        signal_from_json(doc)


def test_linear_map_is_its_rows():
    t = LinearMap(((1, 2, 3), (4, 5, Fraction(1, 2))))
    assert [f.name for f in dataclasses.fields(LinearMap)] == ["entries"]
    assert (t.r, t.ell, t.column(2)) == (2, 3, (3, Fraction(1, 2)))
    assert t == LinearMap([[1, 2, 3], [4, 5, Fraction(1, 2)]])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: LinearMap(()), "map has no rows"),
        (lambda: LinearMap(((),)), "map row 0 is empty"),
        (lambda: LinearMap([]), "map has no rows"),
        (lambda: LinearMap(((1, 1, 1), ())), "map row 1 has 0 values, row 0 3"),
        (lambda: LinearMap([[1, 1, 1], [1, 1]]), "map row 1 has 2 values, row 0 3"),
    ],
    ids=["no-rows", "no-columns", "from-no-rows", "missing-row", "short-row"],
)
def test_linear_map_shape_messages(build, message):
    """A map is at least one row, all of one nonzero length: ``r`` and
    ``ell`` are read off its rows, so no other shape has them."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: LinearMap([[1, 0.5, 1]]), "map entry [0][1] has type float"),
        (lambda: LinearMap([[1, 1], [1, "2"]]), "map entry [1][1] has type str"),
        (lambda: LinearMap([[True, 1, 1]]), "map entry [0][0] has type bool"),
        (lambda: Signal([[0, 0], [0, 0.1]]), "signal value [1][1] has type float"),
        (lambda: Signal([[0, "1/2"]]), "signal value [0][1] has type str"),
        (lambda: Signal([[0], [False]]), "signal value [1][0] has type bool"),
        (lambda: Signal([[None]]), "signal value [0][0] has type NoneType"),
    ],
    ids=["map-float", "map-str", "map-bool", "signal-float", "signal-str", "signal-bool", "signal-none"],
)
def test_from_rows_value_type_messages(build, message):
    """The map and signal constructors take ints and Fractions only: a
    float, a string or a bool never enters as the fraction it converts
    to, and the message names its place and type."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}; expected int or Fraction$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Signal([[0, 0, 0], [0, 0], [0, 0, 0]]),
        lambda: Signal(((0, 0, 0), (0, 0), (0, 0, 0))),
    ],
    ids=["lists", "constructor"],
)
def test_signal_rejects_a_ragged_table(build):
    """A table whose rows differ in length is no signal: it would read as
    ``n_vertices`` from row 0, pass a verifier that stops at the shorter
    row, and be written as a document that does not load back. The first
    row unlike row 0 is named with both lengths."""
    with pytest.raises(DomainError, match="^signal row 1 has 2 values, row 0 3$"):
        build()


def test_from_rows_keeps_ints_and_fractions():
    half = Fraction(1, 2)
    assert LinearMap([[1, half, -3]]).entries == ((1, half, -3),)
    assert Signal(([0, half] for _ in range(2))).values == ((0, half), (0, half))


@pytest.mark.parametrize("ell,n", [(3, 4), (2, 3)], ids=["long", "two-axes"])
def test_save_signal_shape_message(tmp_path, triangle, ell, n):
    """One shape rule, one message: ``save_signal`` refuses the signal
    before any file is touched, and the verifier refuses it alike."""
    s, path = Signal([[0] * n] * ell), tmp_path / "s.json"
    message = f"^signal shape {ell}x{n} does not match hypergraph 3x3$"
    with pytest.raises(DomainError, match=message):
        save_signal(triangle, s, path)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(DomainError, match=message):
        find_violation(triangle, universal_map(3), s)


def test_linear_map_json():
    t = linear_map_from_json([["1", "-2", "1"]])
    assert t.entries == ((1, -2, 1),)
    with pytest.raises(FormatError):
        linear_map_from_json([["1", "2"], ["3"]])
    with pytest.raises(FormatError):
        linear_map_from_json("nope")
