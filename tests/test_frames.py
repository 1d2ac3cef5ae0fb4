import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_connected_instance, random_engaged_map, random_multiset_instance
import hypersig.linalg
import hypersig.signals
from hypersig import (
    DisconnectedError,
    DomainError,
    Hypergraph,
    HypersigError,
    LinearMap,
    Partition,
    SparseMatrix,
    attach_simplex,
    fan,
    fold_pairs,
    frame,
    frame_result_to_json,
    fusion,
    generating_signal,
    is_stable,
    mountain_range,
    centroid_map,
    nullspace,
    random_hypergraph,
    signal_space,
    universal_map,
    verify_signal,
)
from oracle import edge_sum_rows, oracle_fusion_blocks, partition_blocks


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


@pytest.mark.parametrize("ell,m_max,instances", [(4, 4, 12), (5, 3, 6)])
def test_frame_matches_dense_oracle_at_higher_arity(ell, m_max, instances):
    """Differential check of frame(h, t) against the dense oracle at arity
    4 and 5, with repeated-vertex edges, under U and random engaged maps."""
    rng = random.Random(326 + ell)
    for _ in range(instances):
        h = random_multiset_instance(rng, ell, n_max=6, m_max=m_max)
        for t in (universal_map(ell), random_engaged_map(rng, ell)):
            result = frame(h, t)
            assert partition_blocks(result.fusion.classes) == oracle_fusion_blocks(h, t)
            assert result.frame.n_vertices == result.fusion.n_classes
            class_map = frame_result_to_json(result, h)["class_map"]
            for x, label in enumerate(h.vertices):
                block = result.fusion.classes[result.fusion.class_of[x]]
                assert class_map[label] == h.vertices[block[0]]


def assembly_fusion(h, t):
    """Fusion read off the full constraint assembly: the level sets of
    every basis signal of ``signal_space`` on every axis."""
    sigs = signal_space(h, t).signals()
    return Partition.from_keys(
        [tuple(s.values[a][x] for s in sigs for a in range(h.ell)) for x in range(h.n_vertices)]
    )


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
    return LinearMap.from_rows([[c / rng.randint(1, 4) for c in row] for row in rows])


@pytest.mark.parametrize(
    "h", DIFFERENTIAL, ids=[f"{i}-ell{h.ell}-n{h.n_vertices}" for i, h in enumerate(DIFFERENTIAL)]
)
def test_reduced_fusion_matches_assembly_and_oracle(h):
    """Three-way check of fusion: it equals the level sets of signal_space
    and the dense oracle under every case the map decides. Under
    coordinate-sum maps and rank-1 maps (a two-row rational one included)
    the edge-sum engine runs; C, random engaged rational maps, a rank-2
    map whose first row starts with 0 and a three-row rank-2 map give one
    class; a non-engaged map and the zero map give the discrete
    partition. Under every map but U and its multiples, the one
    re-verified signal's level sets are the partition."""
    ell = h.ell
    rng = random.Random(repr(h.edges))
    u_blocks = partition_blocks(assembly_fusion(h, universal_map(ell)).classes)
    assert u_blocks == oracle_fusion_blocks(h, universal_map(ell))
    for rows in ([[1] * ell], [[2] * ell], [[-1] * ell], [[0] * ell, [Fraction(-3, 2)] * ell]):
        t = LinearMap.from_rows(rows)
        part = fusion(h, t)
        assert partition_blocks(part.classes) == u_blocks == oracle_fusion_blocks(h, t)
    steps = list(range(1, ell + 1))
    half = [Fraction(1, 2)] + steps[1:]
    others = [
        centroid_map(ell),
        random_rational_map(rng, ell),
        random_rational_map(rng, ell),
        LinearMap.from_rows([[1] * (ell - 1) + [0]]),
        LinearMap.from_rows([half, [-2 * c for c in half]]),
        LinearMap.from_rows([[0] + [1] * (ell - 1), [1] + [0] * (ell - 1)]),
        LinearMap.from_rows([steps, [1] * ell, [c + 1 for c in steps]]),
    ]
    for t in others:
        values, part = hypersig.signals._certified_signal(h, t)
        assert part == fusion(h, t) == assembly_fusion(h, t)
        assert Partition.from_keys(list(zip(*values))) == part
        assert partition_blocks(part.classes) == oracle_fusion_blocks(h, t)
    zero = LinearMap.from_rows([[0] * ell])
    part = fusion(h, zero)
    assert part == assembly_fusion(h, zero)
    assert partition_blocks(part.classes) == oracle_fusion_blocks(h, zero)
    assert part.is_discrete()


def edge_sum_nullspace_fusion(h):
    """Level sets of ``f`` over the full canonical kernel of the edge-sum
    system (one row per edge: each vertex's multiplicity at its column, 1
    at column n)."""
    n = h.n_vertices
    rows = tuple(edge_sum_rows(h.edges, range(n)))
    kernel = nullspace(SparseMatrix(n + 1, rows)).vectors
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


def test_fusion_elimination_work_stays_within_its_guard(monkeypatch):
    """Entries touched by ``_subtract`` while fusion under U runs on a
    fixed collapsing input, the certificate's elimination included. A
    count repeats exactly, so this catches a lost row order without a
    timing: rows in edge order touch 21,508 entries, rows furthest right
    first 14,520."""
    touched = []
    subtract = hypersig.linalg._subtract

    def counting(r, c, p):
        touched.append(len(r) + len(p))
        subtract(r, c, p)

    monkeypatch.setattr(hypersig.linalg, "_subtract", counting)
    part = fusion(random_hypergraph(300, 300, 3, 1), universal_map(3))
    assert part.n_classes == 17
    assert sum(touched) <= 16_000


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
    h, t = fan(5), LinearMap.from_rows([[1, 2, 3]])
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
        fusion(fan(5), LinearMap.from_rows([[1, 2, 3]]))


@pytest.mark.parametrize(
    "t", [universal_map(3), LinearMap.from_rows([[1, 2, 3]])], ids=["U", "[[1,2,3]]"]
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
    [(centroid_map(3), 1), (LinearMap.from_rows([[1, 1, 0]]), 60)],
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
    [universal_map(3), centroid_map(3), LinearMap.from_rows([[1, -2, 1]])],
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
