import hashlib
import random
import signal
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    random_chained_instance,
    random_connected_instance,
    random_engaged_map,
    random_multiset_instance,
)
import hypersig.linalg
import hypersig.signals
from hypersig.linalg import _integral_rows
from hypersig import (
    DisconnectedError,
    DomainError,
    Hypergraph,
    HypersigError,
    LinearMap,
    Partition,
    Signal,
    attach_simplex,
    fan,
    find_violation,
    fold_pairs,
    frame,
    fusion,
    generating_signal,
    is_stable,
    mountain_range,
    centroid_map,
    quotient,
    random_hypergraph,
    signal_space,
    universal_map,
    verify_signal,
)
from oracle import (
    IntegerRows,
    canonical_kernel,
    component_roots,
    edge_loop_violation,
    edge_sum_rows,
    edges_connected,
    frame_result_to_json,
    oracle_fusion_blocks,
    partition_blocks,
)


def blocks(partition, h):
    return {frozenset(h.vertices[v] for v in block) for block in partition.classes}


def isomorphic_small(g: Hypergraph, h: Hypergraph) -> bool:
    """Brute-force isomorphism for tiny instances (used only in tests)."""
    if (g.ell, g.n_vertices, g.n_edges) != (h.ell, h.n_vertices, h.n_edges):
        return False
    hedges = set(h.edges)
    for perm in permutations(range(g.n_vertices)):
        if {tuple(sorted(perm[v] for v in e)) for e in g.edges} == hedges:
            return True
    return False


def test_fusion_fan(fan_five):
    part = fusion(fan_five, universal_map(3))
    assert blocks(part, fan_five) == {
        frozenset({"u"}),
        frozenset({"v", "x"}),
        frozenset({"w", "y"}),
    }


def test_fusion_centroid_is_single_class(fan_five):
    rng = random.Random(99)
    for h in [fan_five, random_connected_instance(rng), random_connected_instance(rng)]:
        part = fusion(h, centroid_map(3))
        assert part.n_classes == 1


def test_fusion_folding_free_six(folding_free_six):
    part = fusion(folding_free_six, universal_map(3))
    assert blocks(part, folding_free_six) == {
        frozenset({"w", "y"}),
        frozenset({"u", "z"}),
        frozenset({"v", "x"}),
    }


def test_fusion_requires_connected():
    h = Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(DisconnectedError):
        fusion(h, universal_map(3))


def test_frame_fan(fan_five):
    result = frame(fan_five)
    assert result.frame.n_vertices == 3
    assert result.frame.edges == ((0, 1, 2),)
    class_map = frame_result_to_json(result, fan_five)["class_map"]
    assert class_map["y"] == class_map["w"] == "w"


def test_frame_folding_free_six(folding_free_six):
    result = frame(folding_free_six)
    assert result.frame.n_vertices == 3
    assert result.frame.n_edges == 1


def test_frame_of_stable_input_is_identity(triangle):
    result = frame(triangle)
    assert result.frame == triangle
    assert result.fusion.is_discrete()


def test_frame_general_universal_equals_frame():
    rng = random.Random(321)
    for _ in range(15):
        h = random_connected_instance(rng, n_max=9, m_max=9)
        assert frame(h, universal_map(3)) == frame(h)


def test_frame_general_centroid_collapses_to_point(fan_five):
    result = frame(fan_five, centroid_map(3))
    assert result.frame.n_vertices == 1
    assert result.frame.edges == ((0, 0, 0),)


def assembly_fusion(h, t):
    """Fusion read off the full constraint assembly: the level sets of
    every basis signal of ``signal_space`` on every axis."""
    sigs = signal_space(h, t)
    return Partition.from_keys(
        [tuple(s.values[a][x] for s in sigs for a in range(h.ell)) for x in range(h.n_vertices)]
    )


def edge_sum_nullspace_fusion(h):
    """Level sets of ``f`` over the full canonical kernel of the edge-sum
    system (one row per edge: each vertex's multiplicity at its column, 1
    at column n)."""
    n = h.n_vertices
    rows = tuple(edge_sum_rows(h.edges, range(n)))
    kernel = canonical_kernel(IntegerRows(n + 1, rows))
    return Partition.from_keys([tuple(v[x] for v in kernel) for x in range(n)])


def sweep_shaped_instances():
    cases = [
        random_hypergraph(50, round(d * 50 / 3), 3, 1000 * k + j)
        for k, d in enumerate((Fraction(23, 10), Fraction(26, 10), Fraction(3)))
        for j in range(14)
    ]
    return cases + [random_hypergraph(200, round(Fraction(13, 5) * 200 / 3), 3, s) for s in (7, 8)]


def test_certified_fusion_matches_edge_sum_nullspace():
    """The one-vector certified fusion under U gives the level sets of the
    whole edge-sum kernel on sweep-shaped instances, collapsing ones
    included."""
    cases = sweep_shaped_instances()
    collapsed = 0
    for h in cases:
        part = fusion(h, universal_map(3))
        assert part == edge_sum_nullspace_fusion(h)
        collapsed += not part.is_discrete()
    assert collapsed >= len(cases) // 2


def count_touched(monkeypatch) -> list[int]:
    """Entries touched by each ``_subtract`` of the exact elimination."""
    touched = []
    subtract = hypersig.linalg._subtract

    def counting(r, c, p):
        touched.append(len(r) + len(p))
        subtract(r, c, p)

    monkeypatch.setattr(hypersig.linalg, "_subtract", counting)
    return touched


def test_fusion_elimination_work_stays_within_its_guard(monkeypatch):
    """Entries touched by ``_subtract`` while the exact edge-sum
    elimination runs on a fixed collapsing input. A count repeats
    exactly, so this catches a lost row order without a timing: rows in
    edge order touch 21,508 entries, rows furthest right first 14,520."""
    touched = count_touched(monkeypatch)
    h = random_hypergraph(300, 300, 3, 1)
    hypersig.signals._edge_sum_echelon(h.n_vertices, h.edges)
    assert sum(touched) <= 16_000


def build(ell, n, edges):
    return Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)


def chain(kind, n=2000):
    """``n`` rows along a path of ``n + 1`` vertices: ``(i, i+1, i+1)``,
    ``(i, i, i+1)``, or ``(i, i, i+1)`` hanging off a 2-core of four
    rows on ``n..n+5`` in which each vertex lies twice (``"hanging"``).
    There the path peels from vertex 0, whose row repeats it, and so
    does every row after: each private vertex repeats in its row."""
    if kind == "right":
        return build(3, n + 1, [(i, i + 1, i + 1) for i in range(n)])
    edges = [(i, i, i + 1) for i in range(n)]
    if kind == "left":
        return build(3, n + 1, edges)
    core = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
    return build(3, n + 6, edges + [tuple(n + a for a in e) for e in core])


def count_arithmetic(monkeypatch) -> list[int]:
    """Arithmetic operations made with the drawn free values and every
    int computed from them: ``_draw`` returns ints that count each
    operation and pass the count on to its result."""
    ops = [0]

    def counted(name):
        op = getattr(int, name)

        def method(self, *other):
            ops[0] += 1
            return Counted(op(self, *other))

        return method

    names = ("add", "sub", "mul", "floordiv", "mod")
    names = ("neg", *names, *(f"r{name}" for name in names))
    Counted = type("Counted", (int,), {f"__{name}__": counted(f"__{name}__") for name in names})
    real = hypersig.signals._draw
    monkeypatch.setattr(hypersig.signals, "_draw", lambda rng, k: list(map(Counted, real(rng, k))))
    return ops


@pytest.mark.parametrize(
    "kind,touched,ops,bits,classes",
    [
        ("right", 0, 10_001, 2032, 2001),
        ("left", 0, 12_001, 2032, 2001),
        ("hanging", 25, 18_029, 2029, 2003),
    ],
)
def test_peeled_draw_work_stays_within_its_guard(kind, touched, ops, bits, classes, monkeypatch):
    """Arithmetic operations on drawn values, and the largest entry's bit
    length, while ``_universal_fusion`` solves a 2000-row chain. Every
    path row peels, so nothing but the four-row core is eliminated
    exactly. On the first two chains each row holds a private vertex
    once, so each is solved by a few operations and no division. On the
    hanging chain every private vertex repeats in its row and most
    divisions by its count are inexact: the scaling they need is
    deferred to the end, where rescaling the vector once per row takes
    about two million operations. A count repeats exactly, so this needs
    no timing."""
    h = chain(kind)
    entries, counted = count_touched(monkeypatch), count_arithmetic(monkeypatch)
    f, c, _, part = hypersig.signals._universal_fusion(h)
    assert part.n_classes == classes
    assert sum(entries) == touched
    assert max(abs(x).bit_length() for x in [*f, c]) == bits
    assert counted[0] == ops


def test_frame_returns_within_a_few_seconds():
    """``frame`` returns at once on these inputs, so a peel or GF(3)
    elimination loop that cannot end (a count left undecremented, a wrong
    sign) fails here within the bound and names this test, rather than
    outliving the run. The bound is the test's own: the library's loops
    run unguarded. The failure is asserted outside the interrupted frames,
    whose traceback pytest cannot always render."""

    def expire(signum, stack):
        raise TimeoutError

    hung = None
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for hung in (fan(5), random_hypergraph(30, 30, 3, 1)):
            frame(hung)
        hung = None
    except TimeoutError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert hung is None, f"frame() did not return within 5 s on {hung}"


def record_eliminations(monkeypatch) -> list[int]:
    """The vertex count of every edge-sum system eliminated exactly, in
    order: only a nonempty 2-core left by ``_edge_sum_peel`` is, and it
    keeps every vertex of the system peeled."""
    sizes = []
    real = hypersig.signals._edge_sum_echelon

    def recording(n, edges):
        sizes.append(n)
        return real(n, edges)

    monkeypatch.setattr(hypersig.signals, "_edge_sum_echelon", recording)
    return sizes


def record_peels(monkeypatch) -> list[int]:
    """The vertex count of every hypergraph whose edge-sum system is
    peeled (``_edge_sum_peel``), in order: the input or the candidate
    frame a draw runs on, and each frame whose rank a certificate takes
    by its peel, when its edge count does not decide."""
    sizes = []
    real = hypersig.signals._edge_sum_peel

    def recording(g):
        sizes.append(g.n_vertices)
        return real(g)

    monkeypatch.setattr(hypersig.signals, "_edge_sum_peel", recording)
    return sizes


def record_certificates(monkeypatch) -> list[int]:
    """The vertex count of every candidate frame whose nullity the
    certificate (``_certified_frame``) compares, in order, on either
    route. Unless its edge count decides, the frame is peeled; only a
    nonempty 2-core is then eliminated exactly, and shows up in
    :func:`record_eliminations` too."""
    sizes = []
    real = hypersig.signals._certified_frame

    def recording(h, part, nullity):
        sizes.append(part.n_classes)
        return real(h, part, nullity)

    monkeypatch.setattr(hypersig.signals, "_certified_frame", recording)
    return sizes


def test_collapsing_fusion_eliminates_only_the_frame_exactly(monkeypatch):
    """With at least as many edges as vertices, the candidate comes from
    the kernel modulo 3 and only its 17-vertex frame is peeled, to an
    empty 2-core: ``_subtract`` touches no entry where an exact
    elimination of the input touches 14,520. With fewer edges than
    vertices the draw runs on the input peeled: only its 2-core, 20 of
    52 rows, is eliminated exactly, and the certificate peels its
    49-vertex frame before it eliminates the 2-core left. Together they
    touch 245 entries, where the whole input and the frame's core
    touched 385. One certificate serves both routes."""
    h = random_hypergraph(60, 52, 3, 3)
    order, echelon, _ = hypersig.signals._edge_sum_peel(h)
    assert (len(order), len(echelon)) == (32, 20)
    touched, sizes = count_touched(monkeypatch), record_eliminations(monkeypatch)
    certified, peels = record_certificates(monkeypatch), record_peels(monkeypatch)
    part = fusion(random_hypergraph(300, 300, 3, 1), universal_map(3))
    assert part.n_classes == 17
    assert (peels, sizes, certified) == ([17], [], [17])
    assert sum(touched) == 0
    peels.clear()
    certified.clear()
    part = fusion(h, universal_map(3))
    assert part.n_classes == 49
    assert (peels, sizes, certified) == ([60, 49], [60, 49], [49])  # the input's core, the frame's
    assert sum(touched) == 245


def test_certifying_an_empty_core_frame_eliminates_no_frame(monkeypatch):
    """Near discrete, the input peels away to an empty 2-core: the draw
    solves every vertex from its own row. The frame's 195 vertices and 168
    edges count to the bound, the input's nullity 201 - 173 = 28, so the
    certificate accepts it unpeeled, and nothing is eliminated exactly,
    neither the input nor the frame."""
    h = random_hypergraph(200, 173, 3, 3)
    order, echelon, _ = hypersig.signals._edge_sum_peel(h)
    assert (len(order), echelon) == (173, {})
    touched, sizes = count_touched(monkeypatch), record_eliminations(monkeypatch)
    certified, peels = record_certificates(monkeypatch), record_peels(monkeypatch)
    result = frame(h)
    assert result.fusion.n_classes == 195
    assert (peels, sizes, certified) == ([200], [], [195])
    assert sum(touched) == 0
    assert_fusion_is_the_oracles(h, result)


def peel_certifies(h, part, nullity):
    """The frame certificate by its peel alone: the nullity of ``h/P``,
    its columns less its peeled rows and 2-core pivots, is the bound."""
    g = quotient(h, part)
    order, echelon, _ = hypersig.signals._edge_sum_peel(g)
    return g.n_vertices + 1 - len(order) - len(echelon) == nullity


def merged_across(h, part):
    """``part`` with the classes of two vertices adjacent in an edge merged,
    a wrong candidate, or None when every edge lies in one class."""
    c = part.class_of
    pair = next(((x, y) for e in h.edges for x, y in zip(e, e[1:]) if c[x] != c[y]), None)
    if pair is None:
        return None
    a, b = (c[x] for x in pair)
    return Partition.from_keys([a if k == b else k for k in c])


def test_the_edge_count_certifies_exactly_what_the_peel_does():
    """``_certified_frame`` accepts a frame unpeeled when its edge count
    reaches the bound, and accepts exactly the candidates the peel alone
    accepts, with the same frame. Candidates: the fusion, the discrete
    partition, one class, the candidate modulo 3, and the fusion with two
    adjacent vertices of different classes merged, which is refused;
    bounds: nullity(h) and nullity_3(h). Both deciders occur, and on the
    49-vertex frame of ``random_hypergraph(60, 52, 3, 3)``, whose rows are
    dependent, the count differs and the peel decides."""
    inputs = [*PINNED, *sweep_shaped_instances(), random_hypergraph(60, 52, 3, 3)]
    inputs += [random_hypergraph(50, 50, 3, 5), random_hypergraph(200, 173, 3, 3)]
    by_count = by_peel = 0
    for h in inputs:
        n = h.n_vertices
        order, echelon, _ = hypersig.signals._edge_sum_peel(h)
        nullity = n + 1 - len(order) - len(echelon)
        fused = hypersig.signals._universal_fusion(h)[3]
        mod_3, rank_3, _ = candidate_mod_3(h)
        wrong = merged_across(h, fused)
        if wrong is not None:
            assert not peel_certifies(h, wrong, nullity)
            assert hypersig.signals._certified_frame(h, wrong, nullity) is None
        candidates = (fused, Partition(tuple(range(n))), Partition((0,) * n), mod_3, wrong)
        for part in filter(None, candidates):
            for bound in (nullity, n + 1 - rank_3):
                found = hypersig.signals._certified_frame(h, part, bound)
                assert (found is not None) == peel_certifies(h, part, bound), h
                if found is not None:
                    g, peeled = found
                    assert g == quotient(h, part)
                    assert peeled in (None, hypersig.signals._edge_sum_peel(g))
                    by_count += peeled is None
                    by_peel += peeled is not None
    assert by_count and by_peel
    h = random_hypergraph(60, 52, 3, 3)
    order, echelon, _ = hypersig.signals._edge_sum_peel(h)
    nullity = 61 - len(order) - len(echelon)
    part = fusion(h, universal_map(3))
    g, peeled = hypersig.signals._certified_frame(h, part, nullity)
    assert g.n_vertices == 49 and g.n_vertices + 1 - g.n_edges != nullity
    assert peeled is not None


def record_frame_route(monkeypatch) -> list:
    """What each call of the route through the candidate modulo 3
    proposed: the candidate, its frame, and the frame's echelon and
    columns, or None when it fell back."""
    outcomes = []
    real = hypersig.signals._frame_fusion

    def recording(h):
        outcomes.append(real(h))
        return outcomes[-1]

    monkeypatch.setattr(hypersig.signals, "_frame_fusion", recording)
    return outcomes


def candidate_mod_3(h):
    """The candidate partition modulo 3 and the two ranks it is checked
    against: modulo 3 and over the rationals."""
    col = hypersig.signals._edge_sum_columns(h.n_vertices, h.edges)
    rows = hypersig.signals._edge_sum_gf3_rows(h, col)
    rank, packed = hypersig.linalg._gf3_kernel(rows, h.n_vertices + 1)
    rational = len(hypersig.signals._edge_sum_echelon(h.n_vertices, h.edges)[0])
    return Partition.from_keys([packed[c] for c in col]), rank, rational


def assert_fusion_is_the_oracles(h, result):
    assert result.fusion == edge_sum_nullspace_fusion(h)
    assert result.frame == quotient(h, result.fusion)


def test_too_coarse_candidate_falls_back_to_the_exact_route(monkeypatch):
    """The candidate modulo 3 has 3 classes where the fusion has 4, with
    equal ranks: its frame's nullity falls short of the bound, so the
    exact route runs on the input and gives the oracle's partition and
    frame."""
    h = random_hypergraph(50, 50, 3, 5)
    p, rank, rational = candidate_mod_3(h)
    assert (p.n_classes, rank, rational) == (3, 49, 49)
    outcomes, sizes = record_frame_route(monkeypatch), record_eliminations(monkeypatch)
    certified = record_certificates(monkeypatch)
    result = frame(h)
    assert outcomes == [None]
    assert sizes == [3, 50]  # candidate frame, the input
    assert certified == [3, 4]  # the candidate's frame; the fusion's, peeled to an empty core
    assert result.fusion.n_classes == 4
    assert_fusion_is_the_oracles(h, result)


@pytest.mark.parametrize(
    "edges,candidate,ranks,sizes,certified",
    [
        (
            [(0, 0, 1), (0, 2, 3), (1, 2, 3), (1, 3, 4), (3, 3, 3), (4, 4, 4)],
            3, (4, 5), [3, 5], [3, 1],
        ),
        ([(0, 0, 1), (0, 2, 2), (1, 1, 2)], 3, (2, 3), [3], [1]),
    ],
    ids=["three-classes", "discrete"],
)
def test_rank_deficient_candidate_falls_back_to_the_exact_route(
    edges, candidate, ranks, sizes, certified, monkeypatch
):
    """A vertex three times in an edge vanishes modulo 3, as do the
    three twice-counted vertices of the second input, so the rank modulo
    3 is below the rational one: no frame reaches the bound, and the
    exact route gives the oracle's partition and frame. A discrete
    candidate, whose frame is the input, goes to the exact route
    uncertified, without eliminating the input twice. The fusion's
    one-vertex frame is certified by peeling alone."""
    n = 1 + max(map(max, edges))
    h = Hypergraph.build(3, [f"v{i}" for i in range(n)], edges)
    p, rank, rational = candidate_mod_3(h)
    assert (p.n_classes, (rank, rational)) == (candidate, ranks)
    outcomes, sizes_seen = record_frame_route(monkeypatch), record_eliminations(monkeypatch)
    certified_seen = record_certificates(monkeypatch)
    result = frame(h)
    assert outcomes == [None]
    assert sizes_seen == sizes
    assert certified_seen == certified
    assert result.fusion.n_classes == 1
    assert_fusion_is_the_oracles(h, result)
    assert partition_blocks(result.fusion.classes) == oracle_fusion_blocks(h, universal_map(3))


def test_lift_that_fails_reverification_is_an_internal_error(monkeypatch):
    """A candidate frame missing an edge reaches the bound, and the lift
    of its kernel vector breaks an edge of the input. Only a wrong
    quotient or elimination gets there, so it is an internal error, not a
    fallback: only the candidate frame is peeled, to an empty 2-core,
    and the input is never peeled or eliminated exactly."""
    h = random_hypergraph(50, 50, 3, 5)
    real = hypersig.signals.quotient
    calls = []

    def first_drops_an_edge(g, part):
        q = real(g, part)
        calls.append(part)
        return q if len(calls) > 1 else Hypergraph(q.ell, q.vertices, q.edges[1:])

    monkeypatch.setattr(hypersig.signals, "quotient", first_drops_an_edge)
    sizes, peels = record_eliminations(monkeypatch), record_peels(monkeypatch)
    with pytest.raises(HypersigError) as failure:
        frame(h)
    assert str(failure.value) == (
        "internal error: basis signal fails at ((13, 21, 24), (13, 21, 24), 0)"
    )
    assert (peels, sizes) == ([3], [])  # the candidate frame only



@pytest.mark.parametrize("rows", [[[1, 2, 3]], [[-3, 1, 2]]], ids=["[[1,2,3]]", "[[-3,1,2]]"])
@pytest.mark.parametrize(
    "h",
    [random_hypergraph(60, 60, 3, 0), random_hypergraph(300, 300, 3, 1)],
    ids=["n60-m60", "n300-m300"],
)
def test_rank_one_lift_on_the_frame_route(h, rows, monkeypatch):
    """Under a rank-1 map other than U, on inputs the candidate modulo 3
    certifies, the fusion signal is U's scaled on axis a by
    ``lcm(v) / v_a``, a negative factor included: admissible under the
    map, its level sets U's partition."""
    outcomes = record_frame_route(monkeypatch)
    u_values, _, u_part = hypersig.signals._certified_signal(h, universal_map(3))
    t = LinearMap(rows)
    values, g, part = hypersig.signals._certified_signal(h, t)
    assert len(outcomes) == 2 and None not in outcomes
    assert part == u_part
    assert g == quotient(h, part)
    assert find_violation(h, t, Signal(values)) is None
    assert Partition.from_keys(list(zip(*values))) == part
    scale = lcm(*rows[0])
    assert values == [[x * (scale // v) for x in row] for v, row in zip(rows[0], u_values)]


def certified_signal_pin_inputs():
    """Inputs of the ``_certified_signal`` pin: seeded differential inputs
    (ell 3-6, m >= n) that the candidate modulo 3 certifies, the four
    inputs whose candidate falls short (too coarse or rank deficient
    modulo 3), and inputs with fewer edges than vertices, which take the
    exact route."""
    rng = random.Random(25)
    cases = []
    for i in range(24):
        ell, n = rng.randint(3, 6), rng.randint(8, 60)
        cases.append(random_chained_instance(rng, ell, n, rng.randint(n, 2 * n), repeats=i % 2 == 1))
    for edges in (
        [(0, 0, 1), (0, 2, 3), (1, 2, 3), (1, 3, 4), (3, 3, 3), (4, 4, 4)],
        [(0, 0, 1), (0, 2, 2), (1, 1, 2)],
    ):
        cases.append(Hypergraph.build(3, [f"v{i}" for i in range(1 + max(map(max, edges)))], edges))
    cases += [random_hypergraph(50, 50, 3, s) for s in (5, 1, 0)]
    cases += [random_hypergraph(60, 60, 3, 0), random_hypergraph(300, 300, 3, 1)]
    cases += [random_hypergraph(40, 45, 4, 0), random_hypergraph(40, 30, 4, 0)]
    cases += [random_hypergraph(60, 52, 3, 3), fan(5), mountain_range(6)]
    cases += [random_hypergraph(50, 38, 3, s) for s in range(4)]
    return cases


def test_certified_signal_pin():
    """Digest of the signal table, frame edges and fusion classes of
    ``_certified_signal`` on 40 inputs, under U and under ``[1..ell]``,
    which lifts the fusion signal axis-wise: every route, mod-3
    certified, fallen back and exact, gives these exact integers. They
    are the draw's on the peeled edge-sum system, whose free columns
    leave out the private vertices; ``_check_basis`` re-verifies them."""
    digest = hashlib.sha256()
    for h in certified_signal_pin_inputs():
        for t in (universal_map(h.ell), LinearMap([list(range(1, h.ell + 1))])):
            values, g, part = hypersig.signals._certified_signal(h, t)
            digest.update(repr((values, g.edges, part.classes)).encode())
    assert digest.hexdigest() == (
        "9213b011c169bf65354199c5fa0f9d7889f4d7918900b2b6a562ac8289a70707"
    )


def test_certified_partition_pin():
    """Digest of the frame edges and fusion classes of
    ``_certified_signal`` on the inputs of :func:`test_certified_signal_pin`,
    under U and under ``[1..ell]``: whichever kernel vectors a route draws,
    the certified partition and frame are these."""
    digest = hashlib.sha256()
    for h in certified_signal_pin_inputs():
        for t in (universal_map(h.ell), LinearMap([list(range(1, h.ell + 1))])):
            _, g, part = hypersig.signals._certified_signal(h, t)
            digest.update(repr((g.edges, part.classes)).encode())
    assert digest.hexdigest() == (
        "c1cf579ac8e4dbcfd6719e721543fa22f078d59c2a3489f2fc44e0490a082e46"
    )


def test_certificate_rejects_a_draw_that_merges_too_much(fan_five, monkeypatch):
    """Free values all zero give the zero vector, whose one level set is
    a wrong candidate: the rank certificate rejects it and a fresh draw
    gives the canonical partition and a signal that realizes it."""
    draws = []
    real = hypersig.signals._draw

    def draw(rng, k):
        draws.append(k)
        return [0] * k if len(draws) == 1 else real(rng, k)

    monkeypatch.setattr(hypersig.signals, "_draw", draw)
    part = fusion(fan_five, universal_map(3))
    assert len(draws) == 2
    assert part == edge_sum_nullspace_fusion(fan_five)
    assert blocks(part, fan_five) == {
        frozenset({"u"}), frozenset({"v", "x"}), frozenset({"w", "y"})
    }
    draws.clear()
    delta = generating_signal(fan_five)
    assert len(draws) == 2
    assert Partition.from_keys(delta.values[0]) == part
    assert verify_signal(fan_five, universal_map(3), delta)
    # the same under a rank-1 map other than U, which fuses as U does
    h, t = fan(5), LinearMap([[1, 2, 3]])
    draws.clear()
    part = fusion(h, t)
    assert len(draws) == 2
    assert part == assembly_fusion(h, t)
    assert blocks(part, h) == {
        frozenset({"u"}), frozenset({"v0", "v2", "v4"}), frozenset({"v1", "v3", "v5"})
    }


def test_certificate_never_accepts_a_wrong_candidate(fan_five, monkeypatch):
    """Draws that all merge every vertex are all rejected, and running out
    of draws is an internal error, not a wrong partition, under U and
    under a map other than U."""
    monkeypatch.setattr(hypersig.signals, "_draw", lambda rng, k: [0] * k)
    with pytest.raises(HypersigError, match="no fusion certified"):
        fusion(fan_five, universal_map(3))
    with pytest.raises(HypersigError, match="no fusion certified"):
        fusion(fan(5), LinearMap([[1, 2, 3]]))


NO_FUSION = "internal error: no fusion certified in 64 draws"


@pytest.mark.parametrize(
    "h,messages",
    [
        (fan(5), [NO_FUSION]),
        (
            random_hypergraph(50, 50, 3, 5),
            [
                f"internal error: basis signal fails at ({e}, {e}, 0)"
                for e in ((13, 21, 24), (0, 7, 33), (3, 10, 13))
            ],
        ),
        (random_hypergraph(60, 60, 3, 0), [NO_FUSION] * 2),
    ],
    ids=["fan5", "n50-m50", "n60-m60"],
)
def test_certificate_runs_on_the_frame(h, messages, monkeypatch):
    """The certificate is a fact about the frame it returns: with one
    frame edge dropped, whichever it is, fusion under U raises an
    internal error, never a partition. Either every draw is rejected, or
    (on n50-m50, whose too coarse candidate frame then reaches the bound)
    the lift fails re-verification on the input."""
    real = hypersig.signals.quotient
    frame_edges = frame(h).frame.n_edges
    assert frame_edges < h.n_edges
    raised = []
    for i in range(frame_edges):

        def dropped(g, part, i=i):
            q = real(g, part)
            return Hypergraph(q.ell, q.vertices, q.edges[:i] + q.edges[i + 1 :])

        monkeypatch.setattr(hypersig.signals, "quotient", dropped)
        with pytest.raises(HypersigError) as failure:
            fusion(h, universal_map(3))
        raised.append(str(failure.value))
    assert raised == messages


def test_frame_builds_its_quotient_once(fan_five, monkeypatch):
    """``frame`` takes the frame its fusion built: one quotient under U
    (collapsing inputs included), under C and under a map with a zero
    column, and the frame is the quotient by the returned partition."""
    calls = []
    real = hypersig.hypergraph.quotient

    def counting(h, part):
        calls.append(part)
        return real(h, part)

    for module in (hypersig.hypergraph, hypersig.signals, hypersig.frames):
        if hasattr(module, "quotient"):
            monkeypatch.setattr(module, "quotient", counting)
    zero_column = LinearMap([[1, 1, 0]])
    for h in (fan_five, random_hypergraph(60, 60, 3, 0), random_hypergraph(300, 300, 3, 1)):
        for t in (None, centroid_map(3), zero_column):
            calls.clear()
            result = frame(h, t)
            assert calls == [result.fusion]
            assert result.frame == real(h, result.fusion)


@pytest.mark.parametrize(
    "t", [universal_map(3), LinearMap([[1, 2, 3]])], ids=["U", "[[1,2,3]]"]
)
def test_fusion_fails_when_the_elimination_drops_a_pivot_row(t, monkeypatch):
    """An elimination that loses its highest pivot row yields kernel
    vectors that break that row; re-verification of the signal, or the
    rank certificate, turns this into an internal error, never a
    partition. U and the rank-1 map both run the edge-sum engine."""
    forward_echelon = hypersig.signals._forward_echelon

    def broken(rows):
        pivots = forward_echelon(rows)
        del pivots[max(pivots)]
        return pivots

    monkeypatch.setattr(hypersig.signals, "_forward_echelon", broken)
    with pytest.raises(HypersigError, match="^internal error: "):
        fusion(random_hypergraph(60, 52, 3, 3), t)


@pytest.mark.parametrize(
    "t,classes",
    [(centroid_map(3), 1), (LinearMap([[1, 1, 0]]), 60)],
    ids=["C", "[[1,1,0]]"],
)
def test_fusion_decided_by_the_map_runs_no_elimination(t, classes, monkeypatch):
    """An engaged map of rank 2 fuses into one class and a map with a zero
    column gives the discrete partition, with no elimination: it is
    patched to raise, and fusion still returns."""

    def broken(rows):
        raise AssertionError("elimination ran")

    monkeypatch.setattr(hypersig.signals, "_forward_echelon", broken)
    assert fusion(random_hypergraph(60, 52, 3, 3), t).n_classes == classes


@pytest.mark.parametrize(
    "t",
    [universal_map(3), centroid_map(3), LinearMap([[1, -2, 1]])],
    ids=["U", "C", "skew"],
)
def test_signal_space_fails_when_the_echelon_loses_a_pivot_row(t, monkeypatch):
    """Kernel vectors read off an echelon form missing one pivot row hold
    that row's pivot column as a free column, which breaks the row; the
    basis re-verification raises an internal error. The echelon patched
    is the one behind ``_kernel_basis``: of the reduced system under the
    rank-1 maps U and skew, of the map's own rows under C."""
    forward_echelon = hypersig.linalg._forward_echelon

    def broken(rows):
        pivots = forward_echelon(rows)
        pivots.popitem()
        return pivots

    monkeypatch.setattr(hypersig.linalg, "_forward_echelon", broken)
    with pytest.raises(HypersigError, match="^internal error: basis signal fails"):
        signal_space(random_hypergraph(60, 52, 3, 3), t)


def test_reduced_fusion_checks_arity(triangle):
    with pytest.raises(DomainError):
        fusion(triangle, universal_map(4))


def relabelled(h, rng):
    """``h`` with its vertex ids renumbered by a random permutation, each
    vertex keeping its label."""
    order = list(range(h.n_vertices))
    rng.shuffle(order)
    new_id = {old: new for new, old in enumerate(order)}
    return Hypergraph.build(
        h.ell, [h.vertices[old] for old in order], [[new_id[v] for v in e] for e in h.edges]
    )


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_universal_fusion_invariant_under_relabelling(ell):
    """Renumbering the vertex ids moves no vertex to another class."""
    rng = random.Random(328 + ell)
    for _ in range(8):
        if ell == 3:
            h = random_connected_instance(rng, n_max=12, m_max=14)
        else:
            h = random_multiset_instance(rng, ell, n_max=8, m_max=5)
        g = relabelled(h, rng)
        assert blocks(frame(g).fusion, g) == blocks(frame(h).fusion, h)


def test_certified_fusion_invariant_under_relabelling_of_collapsing_inputs():
    """The elimination orders columns by degree and rows by column, ties
    by vertex id; renumbering the ids of sweep-shaped and n=300 inputs,
    collapsing ones included, moves no vertex to another class under U."""
    rng = random.Random(14)
    u = universal_map(3)
    for h in sweep_shaped_instances()[::3] + [random_hypergraph(300, 300, 3, 1)]:
        g = relabelled(h, rng)
        assert blocks(fusion(g, u), g) == blocks(fusion(h, u), h)


def test_universal_fusion_refines_engaged_maps():
    rng = random.Random(322)
    for _ in range(12):
        h = random_connected_instance(rng, n_max=8, m_max=8)
        u_classes = frame(h).fusion.classes
        for _ in range(3):
            t = random_engaged_map(rng)
            t_part = fusion(h, t)
            for block in u_classes:
                cids = {t_part.class_of[v] for v in block}
                assert len(cids) == 1


def u_signal(f, c, ell):
    """The U-signal ``s_0 = f + C``, ``s_a = f`` of a kernel vector ``(f, C)``."""
    return [[x + c for x in f]] + [f] * (ell - 1)


def draw_route(h, t):
    """The draw on ``h`` peeled, at any m: its U-signal, frame and partition."""
    f, c, g, part = hypersig.signals._certified_draw(h, hypersig.signals._edge_sum_peel(h))
    return u_signal(f, c, h.ell), g, part


def candidate_route(h, t):
    """The candidate modulo 3 and its certified frame, at any m, with the
    draw on that frame lifted to ``h``; None when it declines, as it must
    for a discrete candidate, whose frame is ``h``."""
    found = hypersig.signals._frame_fusion(h)
    if found is None:
        return None
    p, g, peeled = found
    assert not p.is_discrete()
    f, c, _, _ = hypersig.signals._certified_draw(g, peeled)
    return u_signal([f[x] for x in p.class_of], c, h.ell), g, p


def universal_route(h, t):
    """``_universal_fusion``, the dispatch under U that takes disconnected
    input as it is: met with the components, its vector's level sets are
    the U-fusion of every component."""
    f, c, g, part = hypersig.signals._universal_fusion(h)
    return u_signal(f, c, h.ell), g, part


def frame_route(h, t):
    """``frame``'s dispatch under ``t``, with the one signal it re-verified.
    Under U that is the candidate's when m >= n and it does not decline,
    else the draw's. Disconnected input raises."""
    if not edges_connected(h.n_vertices, h.edges):
        with pytest.raises(DisconnectedError):
            frame(h, t)
        return None
    checked, real = [], hypersig.signals._check_basis
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypersig.signals, "_check_basis", lambda *args: checked.append(args) or real(*args))
        result = frame(h, t)
    [(verified, maps, [values])] = checked
    assert verified == h and maps == _integral_rows(t.entries)
    if t == universal_map(h.ell):
        picked = h.n_edges >= h.n_vertices and candidate_route(h, t) or draw_route(h, t)
        assert (values, result.frame, result.fusion) == picked
    return values, result.frame, result.fusion


def rank_one(ell):
    """A zero row and two rational multiples of one row, one negative."""
    half = [Fraction(1, 2), *range(2, ell + 1)]
    return LinearMap([[0] * ell, half, [-2 * c for c in half]])


def rank_two(ell):
    """Three rows of rank 2, the first with a zero."""
    first = [0] + [1] * (ell - 1)
    return LinearMap([first, [1] + [0] * (ell - 1), [1] * ell])


MAPS = {
    "U": universal_map,
    "rank1": rank_one,
    "C": centroid_map,
    "rank2": rank_two,
    "zero-column": lambda ell: LinearMap([[1] * (ell - 1) + [0]]),
    "zero-map": lambda ell: LinearMap([[0] * ell]),
}
ROUTES = [(frame_route, kind) for kind in MAPS] + [(candidate_route, "U"), (draw_route, "U")]
U_ROUTES = (frame_route, universal_route, candidate_route, draw_route)
oracle_blocks = cache(oracle_fusion_blocks)  # the routes under U share their inputs


def assert_route_matches_the_oracle(route, h, t):
    """The one check of every fusion route: met with the components, the
    partition is the oracle's, the frame is the quotient by it, and the
    route's signal is admissible and has the partition as its level sets.
    Returns the route's (signal, frame, partition), or None."""
    found = route(h, t)
    if found is not None:
        values, g, part = found
        met = Partition.from_keys(list(zip(part.class_of, component_roots(h.n_vertices, h.edges))))
        assert partition_blocks(met.classes) == oracle_blocks(h, t)
        assert g == quotient(h, part)
        assert edge_loop_violation(h, _integral_rows(t.entries), values) is None
        assert Partition.from_keys(list(zip(*values))) == part
    return found


# per arity: most vertices, most edges drawn on top of the connecting ones
SIZES = {3: (8, 10), 4: (6, 5), 5: (4, 3), 6: (3, 1)}


@st.composite
def small_inputs(draw):
    """``ell``-uniform input (ell 3-6) small enough for the dense oracle:
    half of them connected by an edge from each vertex to an earlier one,
    then random edges, each with its first vertex put 1 to ``ell`` times.
    So m falls on either side of n, and the input may be disconnected,
    repeat a vertex, or leave one in no edge."""
    ell = draw(st.sampled_from((3, 3, 4, 4, 5, 6)))  # the oracle's cost grows as ell!
    n_max, m_max = SIZES[ell]
    n = draw(st.integers(1, n_max))
    vertex = st.integers(0, n - 1)
    edges = []
    if draw(st.booleans()):
        rest = st.lists(vertex, min_size=ell - 2, max_size=ell - 2)
        edges += [[v, draw(st.integers(0, v - 1)), *draw(rest)] for v in range(1, n)]
    edge = st.lists(vertex, min_size=ell, max_size=ell)
    for e, times in draw(st.lists(st.tuples(edge, st.integers(1, ell)), max_size=m_max)):
        e[1:times] = [e[0]] * (times - 1)
        edges.append(e)
    return build(ell, n, edges)


PINNED = [
    # fewer edges than vertices
    build(3, 6, [(0, 1, 2), (2, 3, 4)]),  # an empty 2-core
    build(3, 4, [(0, 0, 1), (0, 1, 1), (1, 2, 3)]),  # a 2-core and a peeled row
    build(3, 5, [(0, 0, 1), (1, 1, 2), (1, 2, 2)]),  # a private vertex twice in its row
    build(4, 8, [(0, 0, 0, 1), (1, 1, 2, 2), (1, 2, 2, 2), (3, 4, 5, 5)]),  # three times
    # a path of repeated private vertices off a 2-core whose kernel is not constant
    build(3, 9, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5), (6, 6, 0), (7, 7, 6), (8, 8, 7)]),
    # two complete K4s and a vertex in no edge: f alone merges the K4s
    build(3, 9, [*combinations(range(4), 3), *combinations(range(4, 8), 3)]),
    *(build(ell, 1, [(0,) * ell]) for ell in (3, 4, 5)),  # one-vertex edges
    # candidates that decline: too coarse, rank_3 < rank_Q, and discrete besides
    build(3, 6, [(0, 1, 4), (0, 3, 5), (1, 1, 4), (1, 3, 5), (1, 5, 5), (2, 3, 4)]),
    build(3, 5, [(0, 0, 1), (0, 2, 3), (1, 2, 3), (1, 3, 4), (3, 3, 3), (4, 4, 4)]),
    build(3, 3, [(0, 0, 1), (0, 2, 2), (1, 1, 2)]),
    fan(5),  # m < n, collapsing: the draw on the input
]


def pinned(inputs):
    """One hypothesis ``example`` per input."""

    def add(test):
        for h in inputs:
            test = example(h=h)(test)
        return test

    return add


@pytest.mark.parametrize(
    "route,kind", ROUTES, ids=[f"{route.__name__[:-6]}-{kind}" for route, kind in ROUTES]
)
@given(h=small_inputs())
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@pinned(PINNED)
def test_fusion_route_matches_the_oracle(route, kind, h):
    """One differential for every fusion route: ``frame``'s dispatch under
    U, a rational rank-1 map, C, a rank-2 map, a zero column and the zero
    map; the candidate modulo 3 when it does not decline; and the draw on
    the input peeled. The pinned inputs cover empty and nonempty 2-cores,
    private vertices repeated in their rows, disconnected input,
    one-vertex edges, and candidates that decline: too coarse, rank
    deficient modulo 3, and discrete."""
    assert_route_matches_the_oracle(route, h, MAPS[kind](h.ell))


@given(h=small_inputs().filter(lambda h: h.n_edges < h.n_vertices))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@pinned(PINNED[:5])
def test_peeled_draw_matches_the_oracle_per_component(h):
    """With fewer edges than vertices the draw runs on the input peeled:
    its 2-core eliminated, then each private vertex solved from its own
    row. The one check holds on the draw and on ``_universal_fusion``."""
    for route in (universal_route, draw_route):
        assert_route_matches_the_oracle(route, h, universal_map(h.ell))


@pytest.mark.parametrize("ell,m_max,instances", [(4, 4, 12), (5, 3, 6)])
def test_frame_matches_dense_oracle_at_higher_arity(ell, m_max, instances):
    """The one check at arity 4 and 5 on seeded inputs with repeated-vertex
    edges: every route under U, and ``frame`` under U and a random engaged
    map, whose class map names each class by its first vertex."""
    rng = random.Random(326 + ell)
    for _ in range(instances):
        h = random_multiset_instance(rng, ell, n_max=6, m_max=m_max)
        for route in U_ROUTES[1:]:
            assert_route_matches_the_oracle(route, h, universal_map(ell))
        for t in (universal_map(ell), random_engaged_map(rng, ell)):
            _, _, part = assert_route_matches_the_oracle(frame_route, h, t)
            class_map = frame_result_to_json(frame(h, t), h)["class_map"]
            for x, label in enumerate(h.vertices):
                assert class_map[label] == h.vertices[part.classes[part.class_of[x]][0]]


def differential_instances():
    rng = random.Random(327)
    cases = [random_connected_instance(rng, n_max=7, m_max=6) for _ in range(6)]
    for ell, count in ((3, 6), (4, 6), (5, 2)):
        cases += [random_multiset_instance(rng, ell, n_max=6, m_max=3) for _ in range(count)]
    cases += [Hypergraph.build(ell, ["x"], [(0,) * ell]) for ell in (3, 4, 5)]
    cases += [random_multiset_instance(rng, 6, n_max=3, m_max=2)]
    return cases


DIFFERENTIAL = differential_instances()


def random_rational_map(rng, ell):
    """Random engaged map with rational entries, r in {1, 2}."""
    rows = random_engaged_map(rng, ell).entries
    return LinearMap([[c / rng.randint(1, 4) for c in row] for row in rows])


@pytest.mark.parametrize(
    "h", DIFFERENTIAL, ids=[f"{i}-ell{h.ell}-n{h.n_vertices}" for i, h in enumerate(DIFFERENTIAL)]
)
def test_reduced_fusion_matches_assembly_and_oracle(h):
    """Three-way check on seeded inputs (ell 3-6, one-vertex edges
    included): the one check on every route under U, and on ``frame``
    under every map of the harness, 2U, -U and two random rational maps,
    whose fusion also equals the level sets of ``signal_space``."""
    ell = h.ell
    rng = random.Random(repr(h.edges))
    maps = [make(ell) for make in MAPS.values()] + [LinearMap([[k] * ell]) for k in (2, -1)]
    for route in U_ROUTES[1:]:
        assert_route_matches_the_oracle(route, h, universal_map(ell))
    for t in maps + [random_rational_map(rng, ell) for _ in range(2)]:
        _, _, part = assert_route_matches_the_oracle(frame_route, h, t)
        assert part == assembly_fusion(h, t)


def disconnected_instance(rng, ell, n):
    """``ell``-uniform input on ``n`` vertices split into two or three
    parts with edges only inside a part, drawn with repeats, so most
    inputs are disconnected and repeat a vertex; every other one leaves
    its last vertex in no edge."""
    loose = rng.random() < 0.5
    order = list(range(n - loose))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), min(rng.randint(1, 2), len(order) - 1)))
    edges = set()
    for part in (order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])):
        for _ in range(rng.randint(1, 2 * len(part))):
            edges.add(tuple(sorted(rng.choices(part, k=ell))))
    return Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)


def test_universal_fusion_per_component_matches_the_oracle():
    """``_universal_fusion`` runs on disconnected input as it is, and the
    one check holds on it and on every route under U (``frame`` raises).
    Seeded inputs (ell 3-4, n <= 8) cover disconnected input, vertices in
    no edge, repeated vertices, and both routes (m >= n and m < n). On two
    disjoint complete 3-uniform K4s and a vertex in no edge, the vector
    alone merges the two K4s; the meet separates them."""
    k4s = PINNED[5]
    f = hypersig.signals._universal_fusion(k4s)[0]
    assert partition_blocks(Partition.from_keys(f).classes) == {frozenset(range(8)), frozenset({8})}
    expected = {frozenset(range(4)), frozenset(range(4, 8)), frozenset({8})}
    assert oracle_blocks(k4s, universal_map(3)) == expected
    assert_route_matches_the_oracle(universal_route, k4s, universal_map(3))
    rng = random.Random(30)
    seen = Counter()
    for i in range(24):
        ell = 3 + i % 2
        h = disconnected_instance(rng, ell, rng.randint(3, 8))
        for route in U_ROUTES:
            assert_route_matches_the_oracle(route, h, universal_map(ell))
        seen.update(
            disconnected=len(set(component_roots(h.n_vertices, h.edges))) > 1,
            loose=len({x for e in h.edges for x in e}) < h.n_vertices,
            repeats=any(len(set(e)) < ell for e in h.edges),
            frame_route=h.n_edges >= h.n_vertices,
            exact_route=h.n_edges < h.n_vertices,
        )
    kinds = ("disconnected", "loose", "repeats", "frame_route", "exact_route")
    assert min(map(seen.__getitem__, kinds)) >= 4, seen


def test_is_stable(triangle, fan_five):
    assert is_stable(triangle)
    assert not is_stable(fan_five)


@pytest.mark.parametrize("n", range(1, 11))
def test_mountain_ranges_are_stable(n):
    assert is_stable(mountain_range(n))


def test_fold_pairs_fan(fan_five):
    # v folds onto x across the shared pair {u,w}; w onto y across {u,x}
    assert fold_pairs(fan_five) == {(1, 3), (2, 4)}


def test_fold_pairs_triangle_empty(triangle):
    assert fold_pairs(triangle) == set()


def test_fold_pairs_folding_free_six(folding_free_six):
    assert fold_pairs(folding_free_six) == set()


def defined_fold_pairs(h):
    """Pairs ``x < y`` of two edges that agree as multisets once one
    occurrence of ``x`` resp. ``y`` is removed, straight from the
    definition."""
    pairs = set()
    for e in h.edges:
        for f in h.edges:
            for x in set(e):
                for y in set(f):
                    if x < y and Counter(e) - Counter([x]) == Counter(f) - Counter([y]):
                        pairs.add((x, y))
    return pairs


def test_fold_pairs_match_the_definition_on_repeated_vertices():
    """An edge that repeats a vertex gives that vertex's residual once,
    and the pairs are the definition's."""
    pinned = Hypergraph.build(3, tuple("abcd"), [(0, 0, 1), (0, 0, 2), (0, 1, 1), (3, 3, 3)])
    assert fold_pairs(pinned) == defined_fold_pairs(pinned) == {(0, 1), (1, 2)}
    rng = random.Random(31)
    for i in range(30):
        h = random_multiset_instance(rng, 3 + i % 3, n_max=5, m_max=6)
        assert fold_pairs(h) == defined_fold_pairs(h), h


def test_fold_pairs_fuse():
    rng = random.Random(323)
    for _ in range(20):
        h = random_connected_instance(rng, n_max=9, m_max=9)
        part = frame(h).fusion
        for x, y in fold_pairs(h):
            assert part.class_of[x] == part.class_of[y]


def test_attach_simplex_counts(triangle):
    bigger = attach_simplex(triangle, "v", ["p", "q"])
    assert bigger.n_vertices == triangle.n_vertices + 2
    assert bigger.n_edges == triangle.n_edges + 1


def test_attach_simplex_gives_two_peak_chain(triangle):
    assert isomorphic_small(attach_simplex(triangle, "v", ["p", "q"]), mountain_range(2))


def test_attach_simplex_errors(triangle):
    with pytest.raises(DomainError):
        attach_simplex(triangle, "nope", ["p", "q"])
    with pytest.raises(DomainError):
        attach_simplex(triangle, "u", ["p"])
    with pytest.raises(DomainError):
        attach_simplex(triangle, "u", ["p", "p"])
    with pytest.raises(DomainError):
        attach_simplex(triangle, "u", ["v", "p"])


def test_attach_simplex_preserves_stability():
    rng = random.Random(324)
    for i in range(10):
        base = frame(random_connected_instance(rng, n_max=8, m_max=8)).frame
        assert is_stable(base)
        z = rng.choice(base.vertices)
        grown = attach_simplex(base, z, [f"n{i}a", f"n{i}b"])
        assert is_stable(grown)


def test_fan_shape(fan_five):
    assert (fan(3).n_vertices, fan(3).edges) == (fan_five.n_vertices, fan_five.edges)
    assert fan(1).n_vertices == 3 and fan(1).n_edges == 1
    assert fan(7).n_vertices == 9 and fan(7).n_edges == 7
    with pytest.raises(DomainError):
        fan(0)


def test_fan_frames_collapse_to_single_segment():
    for n in range(1, 11):
        assert frame(fan(n)).frame == fan(1)


def test_mountain_range_shape():
    m1 = mountain_range(1)
    assert m1.n_vertices == 3 and m1.n_edges == 1
    m4 = mountain_range(4)
    assert m4.n_vertices == 9 and m4.n_edges == 4
    # chain: consecutive edges share exactly one vertex, others none
    for i in range(4):
        for j in range(i + 1, 4):
            shared = set(m4.edges[i]) & set(m4.edges[j])
            assert len(shared) == (1 if j == i + 1 else 0)
    with pytest.raises(DomainError):
        mountain_range(0)


def test_frame_idempotent_on_named_instances(triangle, fan_five, folding_free_six):
    named = [triangle, fan_five, folding_free_six]
    named += [fan(n) for n in (2, 5, 8)]
    named += [mountain_range(n) for n in (2, 5)]
    for h in named:
        once = frame(h).frame
        assert frame(once).frame == once


def test_frame_idempotent_on_random_instances():
    rng = random.Random(325)
    instances = [random_connected_instance(rng, n_max=10, m_max=12) for _ in range(25)]
    # the closure property at higher arity, with edges that repeat a vertex
    instances += [random_multiset_instance(rng, ell, n_max=8, m_max=5) for ell in (4, 5) * 10]
    for h in instances:
        first = frame(h).frame
        second = frame(first)
        assert second.fusion.is_discrete()
        assert second.frame == first


def test_frame_requires_connected():
    h = Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(DisconnectedError):
        frame(h)


def test_frame_result_json(fan_five):
    result = frame(fan_five)
    doc = frame_result_to_json(result, fan_five)
    assert doc["classes"] == [["u"], ["v", "x"], ["w", "y"]]
    assert doc["class_map"]["x"] == "v"
    assert doc["frame"]["vertices"] == ["u", "v", "w"]
