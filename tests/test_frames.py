import random
from itertools import permutations

import pytest

from conftest import random_connected_instance, random_engaged_map, random_multiset_instance
from hypersig import (
    DisconnectedError,
    DomainError,
    Hypergraph,
    attach_simplex,
    fan,
    fold_pairs,
    frame,
    frame_result_to_json,
    fusion,
    is_stable,
    mountain_range,
    centroid_map,
    universal_map,
)
from oracle import oracle_fusion_blocks, partition_blocks


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
    assert result.class_map["y"] == result.class_map["w"] == "w"


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
            for x, label in enumerate(h.vertices):
                block = result.fusion.classes[result.fusion.class_of[x]]
                assert result.class_map[label] == h.vertices[block[0]]


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
    for _ in range(25):
        h = random_connected_instance(rng, n_max=10, m_max=12)
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
