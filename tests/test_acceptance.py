"""Acceptance suite: one test per criterion, exact tolerances, with a
printed pass/fail line and the stated runtime budget enforced."""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from conftest import random_connected_instance, random_covered_instance, random_engaged_map
from hypersig import (
    Hypergraph,
    LinearMap,
    Signal,
    SweepConfig,
    attach_simplex,
    components,
    constant_space,
    fan,
    find_violation,
    fold_pairs,
    frame,
    fusion,
    is_stable,
    mountain_range,
    run_sweep,
    save_hypergraph,
    save_signal,
    signal_space,
    universal_map,
)
from hypersig.cli import main as cli_main
from oracle import enumerate_small_connected, oracle_fusion_and_dimension, partition_blocks


@contextmanager
def criterion(num, label, budget_seconds):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL ({perf_counter() - start:.2f}s)")
        raise
    elapsed = perf_counter() - start
    print(f"criterion {num:02d} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def fan_five():
    return Hypergraph.from_labels(
        3,
        ["u", "v", "w", "x", "y"],
        [("u", "v", "w"), ("u", "w", "x"), ("u", "x", "y")],
    )


def label_blocks(h, partition):
    return {frozenset(h.vertices[v] for v in block) for block in partition.classes}


def test_criterion_01_worked_example():
    with criterion(1, "worked 5-vertex example", 1.0):
        h = fan_five()
        assert len(signal_space(h, universal_map(3))) == 4
        assert len(constant_space(universal_map(3), h.n_vertices)) == 2
        result = frame(h)
        assert label_blocks(h, result.fusion) == {
            frozenset({"u"}),
            frozenset({"v", "x"}),
            frozenset({"w", "y"}),
        }
        assert result.frame.n_vertices == 3
        assert result.frame.n_edges == 1


def test_criterion_02_skew_map_signal(tmp_path):
    with criterion(2, "non-constant signal of a custom map", 1.0):
        tri = Hypergraph.from_labels(3, ["u", "v", "w"], [("u", "v", "w")])
        t = LinearMap([[1, -2, 1]])
        sig = Signal([[0, 0, 2], [1, 1, 0], [0, 0, 2]])
        assert find_violation(tri, t, sig) is None
        hpath, spath, mpath = (
            tmp_path / "tri.json",
            tmp_path / "sig.json",
            tmp_path / "map.json",
        )
        save_hypergraph(tri, hpath)
        save_signal(tri, sig, spath)
        mpath.write_text(json.dumps([["1", "-2", "1"]]))
        code = cli_main(
            ["verify", "--in", str(hpath), "--signal", str(spath), "--map", str(mpath)]
        )
        assert code == 0


def test_criterion_03_fusion_exceeds_folding():
    with criterion(3, "fusion strictly exceeds folding", 1.0):
        h = Hypergraph.from_labels(
            3,
            ["u", "v", "w", "x", "y", "z"],
            [("u", "x", "y"), ("v", "y", "z"), ("u", "v", "w"), ("w", "x", "z")],
        )
        result = frame(h)
        assert label_blocks(h, result.fusion) == {
            frozenset({"w", "y"}),
            frozenset({"u", "z"}),
            frozenset({"v", "x"}),
        }
        assert result.frame.n_vertices == 3
        assert result.frame.n_edges == 1
        folds = fold_pairs(h)
        fused_pairs = {
            (block[i], block[j])
            for block in result.fusion.classes
            for i in range(len(block))
            for j in range(i + 1, len(block))
        }
        assert any(pair not in folds for pair in fused_pairs)


def test_criterion_04_fan_regression():
    with criterion(4, "fans collapse to a single segment", 5.0):
        target = fan(1)
        for n in range(1, 11):
            assert frame(fan(n)).frame == target, f"fan({n})"


def test_criterion_05_stability():
    with criterion(5, "mountain ranges and glued extensions stay stable", 30.0):
        for n in range(1, 11):
            assert is_stable(mountain_range(n)), f"mountain_range({n})"
        rng = random.Random(0xACCE55)
        for i in range(50):
            seed_graph = frame(random_connected_instance(rng, n_max=9, m_max=9)).frame
            z = rng.choice(seed_graph.vertices)
            grown = attach_simplex(seed_graph, z, [f"g{i}a", f"g{i}b"])
            assert is_stable(grown), f"extension {i}"


def test_criterion_06_idempotency():
    with criterion(6, "taking the frame twice changes nothing", 120.0):
        rng = random.Random(0x1DE47)
        for i in range(200):
            n = rng.randint(3, 40)
            bridges = -((n - 1) // -2)
            m_hi = min(60, n * (n - 1) * (n - 2) // 6)
            m = rng.randint(bridges, max(bridges, m_hi))
            h = random_connected_instance_from(n, m, rng)
            once = frame(h).frame
            again = frame(once)
            assert again.fusion.is_discrete(), f"instance {i}"
            assert again.frame == once, f"instance {i}"


def random_connected_instance_from(n, m, rng):
    from hypersig import random_hypergraph

    return random_hypergraph(n, m, 3, rng.randrange(2**32))


def test_criterion_07_component_count():
    with criterion(7, "centroid dimension counts components", 60.0):
        from hypersig import component_count_via_C

        rng = random.Random(0xC0C0)
        disconnected_seen = 0
        for _ in range(100):
            h = random_covered_instance(rng, n_max=14)
            count = components(h).n_classes
            if count > 1:
                disconnected_seen += 1
            assert component_count_via_C(h) == count
        assert disconnected_seen > 0, "sample must include disconnected instances"


def test_criterion_08_refinement():
    with criterion(8, "universal fusion refines every engaged map", 120.0):
        rng = random.Random(0x8EF1)
        checked = 0
        for _ in range(20):
            h = random_connected_instance(rng, n_max=10, m_max=12)
            u_blocks = frame(h).fusion.classes
            for _ in range(5):
                t = random_engaged_map(rng)
                t_part = fusion(h, t)
                for block in u_blocks:
                    assert len({t_part.class_of[v] for v in block}) == 1
                checked += 1
        assert checked == 100


def test_criterion_09_oracle_equivalence():
    with criterion(9, "optimized fusion matches the dense oracle", 300.0):
        instances = enumerate_small_connected(cap=1000)
        assert len(instances) > 300
        u = universal_map(3)
        for h in instances:
            expected, dim = oracle_fusion_and_dimension(h, u)
            assert len(signal_space(h, u)) == dim
            assert partition_blocks(frame(h).fusion.classes) == expected
            assert partition_blocks(fusion(h, u).classes) == expected


def test_criterion_10_reduction_trend():
    with criterion(10, "reduction proportion trend over density", 600.0):
        densities = tuple(Fraction(k, 10) for k in range(23, 31))
        cfg = SweepConfig(
            vertex_counts=(50,),
            densities=densities,
            runs_per_cell=50,
            seed=0,
            ell=3,
            density_mode="avg-degree",
        )
        rows = run_sweep(cfg)
        assert len(rows) == len(densities)
        assert all(row.error is None for row in rows)
        means = [row.mean_reduction_proportion for row in rows]
        for d, mean in zip(densities, means):
            print(f"  density {float(d):.1f}: mean reduction {float(mean):.3f}")
        assert means[0] >= Fraction(1, 2), "lowest density must keep most edges"
        assert means[-1] <= Fraction(15, 100), "highest density must collapse"
        inversions = [
            later - earlier
            for earlier, later in zip(means, means[1:])
            if later > earlier
        ]
        assert len(inversions) <= 1
        assert all(gap <= Fraction(5, 100) for gap in inversions)


def test_criterion_11_exactness_audit(tmp_path):
    with criterion(11, "every emitted basis signal has zero residual", 120.0):
        rng = random.Random(0xE4AC7)
        cases = [
            (fan_five(), universal_map(3)),
            (fan_five(), LinearMap([[1, -2, 1]])),
        ]
        for _ in range(30):
            h = random_connected_instance(rng, n_max=10, m_max=10)
            cases.append((h, random_engaged_map(rng)))
            cases.append((h, universal_map(3)))
        audited = 0
        for h, t in cases:
            space = signal_space(h, t)  # re-verifies internally, raises on failure
            for sig in space:
                assert find_violation(h, t, sig) is None
                audited += 1
        assert audited > 0
        # same audit through the CLI surface
        h, t = cases[0]
        sig = signal_space(h, t)[0]
        hpath, spath = tmp_path / "h.json", tmp_path / "s.json"
        save_hypergraph(h, hpath)
        save_signal(h, sig, spath)
        assert cli_main(["verify", "--in", str(hpath), "--signal", str(spath)]) == 0
