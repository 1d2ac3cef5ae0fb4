import random
import re
from fractions import Fraction

import pytest

from conftest import (
    random_connected_instance,
    random_covered_instance,
    random_engaged_map,
    random_multiset_instance,
)
from hypersig import (
    DisconnectedError,
    DomainError,
    FormatError,
    Hypergraph,
    LinearMap,
    NotEngagedError,
    Partition,
    Signal,
    assemble_constraints,
    centroid_map,
    component_count_via_C,
    components,
    constant_space,
    embed_to_universal,
    find_violation,
    frame,
    generating_signal,
    is_engaged,
    linear_map_from_json,
    load_signal,
    save_signal,
    signal_from_json,
    signal_space,
    signal_to_json,
    universal_map,
    verify_signal,
)
from oracle import oracle_signal_basis, oracle_signal_dimension


def test_universal_map_matrix():
    t = universal_map(3)
    assert t.entries == ((1, 1, 1),)
    with pytest.raises(DomainError):
        universal_map(2)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_universal_kernel_dimension(ell):
    assert constant_space(universal_map(ell), 1).dimension == ell - 1


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
    assert space.dimension == 1


def test_is_engaged():
    assert is_engaged(universal_map(3))
    for ell in (3, 4, 5):
        assert is_engaged(centroid_map(ell))
    assert not is_engaged(LinearMap.from_rows([[1, 0, 1]]))


def test_assemble_triangle_universal(triangle):
    m = assemble_constraints(triangle, universal_map(3))
    assert m.nrows == 6
    rows = m.rows_as_dicts()
    assert all(len(r) == 3 and set(r.values()) == {Fraction(1)} for r in rows)


def test_assemble_constant_edge_single_row():
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 0)])
    m = assemble_constraints(h, universal_map(3))
    assert m.nrows == 1
    # one coefficient per axis column (1,u),(2,u),(3,u); the constraint is
    # delta1(u) + delta2(u) + delta3(u) = 0
    assert m.rows_as_dicts()[0] == {0: 1, 2: 1, 4: 1}


def test_assemble_repeated_vertex_rows():
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    m = assemble_constraints(h, universal_map(3))
    assert m.nrows == 3


def test_assemble_arity_mismatch(triangle):
    with pytest.raises(DomainError):
        assemble_constraints(triangle, universal_map(4))


def test_signal_space_dimensions(fan_five):
    assert signal_space(fan_five, universal_map(3)).dimension == 4
    assert signal_space(fan_five, centroid_map(3)).dimension == 1


def test_signal_space_contains_skew_signal(triangle, skew_map, skew_signal):
    assert verify_signal(triangle, skew_map, skew_signal)
    space = signal_space(triangle, skew_map)
    assert space.dimension == oracle_signal_dimension(triangle, skew_map)


def test_constant_space_skew_map(skew_map):
    space = constant_space(skew_map, 3)
    assert space.dimension == 2
    expected = Signal.from_rows([[2, 2, 2], [1, 1, 1], [0, 0, 0]])
    assert any(sig == expected for sig in space.signals())


def test_constant_signals_admissible_for_any_hypergraph(fan_five, skew_map):
    for sig in constant_space(skew_map, fan_five.n_vertices).signals():
        assert verify_signal(fan_five, skew_map, sig)
    for sig in constant_space(universal_map(3), fan_five.n_vertices).signals():
        assert verify_signal(fan_five, universal_map(3), sig)


def test_verify_zero_signal(fan_five):
    zero = Signal.zero(3, 5)
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
    t, sig = LinearMap.from_rows(rows), Signal.from_rows(values)
    assert not verify_signal(triangle, t, sig)
    assert find_violation(triangle, t, sig) == witness


def test_verify_shape_mismatch(triangle):
    with pytest.raises(DomainError):
        verify_signal(triangle, universal_map(3), Signal.zero(3, 4))


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


def test_embed_universal_signal_is_unscaled(fan_five):
    space = signal_space(fan_five, universal_map(3))
    for sig in space.signals():
        assert embed_to_universal(fan_five, universal_map(3), sig) == sig


def test_embed_skew_signal(triangle, skew_map, skew_signal):
    out = embed_to_universal(triangle, skew_map, skew_signal)
    assert verify_signal(triangle, universal_map(3), out)


def test_embed_constant_signal_stays_constant(triangle, skew_map):
    for sig in constant_space(skew_map, 3).signals():
        out = embed_to_universal(triangle, skew_map, sig)
        assert verify_signal(triangle, universal_map(3), out)
        for row in out.values:
            assert len(set(row)) == 1


def test_embed_requires_engaged(triangle):
    t = LinearMap.from_rows([[1, 0, 1]])
    sig = Signal.zero(3, 3)
    with pytest.raises(NotEngagedError) as err:
        embed_to_universal(triangle, t, sig)
    assert err.value.axis == 1


def test_embed_requires_admissible(triangle, skew_map):
    bad = Signal.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
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
        for sig in signal_space(h, universal_map(3)).signals():
            base = sig.values[0]
            for a in range(1, 3):
                diffs = {sig.values[a][x] - base[x] for x in range(h.n_vertices)}
                assert len(diffs) == 1


def test_centroid_basis_signals_are_flat():
    rng = random.Random(5151)
    for _ in range(25):
        h = random_connected_instance(rng, n_max=9, m_max=9)
        for sig in signal_space(h, centroid_map(3)).signals():
            assert len({v for row in sig.values for v in row}) == 1


def test_dimension_lower_bound_from_kernel():
    rng = random.Random(5152)
    for _ in range(30):
        h = random_connected_instance(rng, n_max=8, m_max=8)
        t = random_engaged_map(rng)
        dim = signal_space(h, t).dimension
        assert dim >= constant_space(t, h.n_vertices).dimension


def test_sparse_dimension_matches_dense_oracle_on_random_maps():
    """The whole canonical basis, not just its size, equals the dense
    Gauss-Jordan oracle's, at ell 3 to 5 and under integer and rational
    maps."""
    rng = random.Random(5153)
    for i, ell in enumerate((3,) * 25 + (4,) * 6 + (5,) * 2):
        if ell == 3:
            h = random_connected_instance(rng, n_max=6, m_max=5)
        else:
            h = random_multiset_instance(rng, ell)
        t = random_engaged_map(rng, ell)
        if i % 2:
            t = LinearMap.from_rows([[Fraction(v, rng.randint(2, 5)) for v in row] for row in t.entries])
        basis = signal_space(h, t).basis.vectors
        assert [list(v) for v in basis] == oracle_signal_basis(h, t)


def test_signal_json_roundtrip(tmp_path, triangle, skew_signal):
    path = tmp_path / "sig.json"
    save_signal(triangle, skew_signal, path)
    vertices, ell, sig = load_signal(path)
    assert vertices == triangle.vertices
    assert ell == 3
    assert sig == skew_signal


def test_signal_json_uses_rational_strings(triangle):
    sig = Signal.from_rows([[Fraction(1, 2), 0, 0], [0, 0, 0], [Fraction(-1, 2), 0, 0]])
    doc = signal_to_json(triangle, sig)
    assert doc["values"][0][0] == "1/2"
    assert doc["values"][2][0] == "-1/2"
    assert signal_from_json(doc)[2] == sig
    # JSON integers and unreduced fractions are accepted too
    doc["values"][1][:3] = [7, "-2/4", "0"]
    assert signal_from_json(doc)[2].values[1] == (7, Fraction(-1, 2), 0)


@pytest.mark.parametrize(
    "value",
    [0.5, True, False, None, " 3 ", "1.5", "1e3", "+3", "3/", "/3", "1/-2", "1/0", "\u0663"],
    ids=repr,
)
def test_signal_json_rejects_floats(triangle, value):
    doc = signal_to_json(triangle, Signal.zero(3, 3))
    doc["values"][0][0] = value
    with pytest.raises(FormatError, match=re.escape(repr(value))):
        signal_from_json(doc)
    with pytest.raises(FormatError, match=re.escape(repr(value))):
        linear_map_from_json([["1", value, "1"]])


def test_signal_json_rejects_bool_arity(triangle):
    doc = signal_to_json(triangle, Signal.zero(3, 3))
    doc["ell"] = True
    doc["values"] = doc["values"][:1]
    with pytest.raises(FormatError, match="'ell' must be an integer"):
        signal_from_json(doc)


def test_linear_map_json():
    t = linear_map_from_json([["1", "-2", "1"]])
    assert t.entries == ((1, -2, 1),)
    with pytest.raises(FormatError):
        linear_map_from_json([["1", "2"], ["3"]])
    with pytest.raises(FormatError):
        linear_map_from_json("nope")
