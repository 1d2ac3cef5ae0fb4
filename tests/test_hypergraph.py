import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersig import (
    DomainError,
    FormatError,
    Hypergraph,
    Partition,
    arrangements,
    components,
    dumps_hypergraph,
    hypergraph_from_json,
    is_connected,
    load_hypergraph,
    quotient,
    save_hypergraph,
)


def two_triangles():
    return Hypergraph.from_labels(
        3, ["a", "b", "c", "d", "e", "f"], [("a", "b", "c"), ("d", "e", "f")]
    )


# Edges are canonicalized in one place, Hypergraph.build, which every
# other constructor and the JSON reader go through.


def test_canonicalize_edge_sorts(fan_five):
    assert Hypergraph.build(3, fan_five.vertices, [(2, 0, 1)]).edges == ((0, 1, 2),)


def test_canonicalize_edge_keeps_repetition(triangle):
    assert Hypergraph.build(3, triangle.vertices, [(1, 1, 0)]).edges == ((0, 1, 1),)


def test_canonicalize_edge_idempotent(triangle):
    once = Hypergraph.build(3, triangle.vertices, [(2, 1, 0)])
    assert Hypergraph.build(3, once.vertices, once.edges) == once


def test_canonicalize_edge_errors(triangle):
    with pytest.raises(DomainError):
        Hypergraph.build(3, triangle.vertices, [(0, 1)])
    with pytest.raises(DomainError):
        Hypergraph.build(3, triangle.vertices, [(0, 1, 7)])


@pytest.mark.parametrize(
    "edge,count",
    [((0, 1, 2), 6), ((0, 0, 1), 3), ((0, 0, 0), 1)],
)
def test_arrangements_counts(edge, count):
    arrs = arrangements(edge)
    assert len(arrs) == count
    assert arrs == sorted(set(arrs))


def test_components_single_class(fan_five):
    part = components(fan_five)
    assert part.n_classes == 1
    assert part.classes[0] == (0, 1, 2, 3, 4)


def test_components_isolated_vertices():
    h = Hypergraph.build(3, ["a", "b", "c", "d"])
    assert components(h).n_classes == 4


def test_components_two_triangles():
    part = components(two_triangles())
    assert [len(c) for c in part.classes] == [3, 3]


def test_is_connected(fan_five, triangle):
    assert is_connected(fan_five)
    assert is_connected(triangle)
    assert not is_connected(two_triangles())
    assert is_connected(Hypergraph.build(3, ["only"]))


def test_quotient_collapse(fan_five):
    part = Partition.from_keys([0, 1, 2, 1, 2])
    q = quotient(fan_five, part)
    assert q.vertices == ("u", "v", "w")
    assert q.edges == ((0, 1, 2),)


def test_quotient_identity_partition(fan_five):
    part = Partition.from_keys(range(5))
    q = quotient(fan_five, part)
    assert q == fan_five


def test_quotient_by_reachability_gives_one_constant_edge_per_component():
    h = two_triangles()
    q = quotient(h, components(h))
    assert q.n_vertices == 2
    assert q.edges == ((0, 0, 0), (1, 1, 1))
    assert all(len(set(e)) == 1 for e in q.edges)
    assert len(q.edges) == q.n_vertices


def test_quotient_counts(fan_five):
    part = Partition.from_keys([0, 0, 1, 1, 1])
    q = quotient(fan_five, part)
    assert q.n_vertices == part.n_classes
    assert q.n_edges <= fan_five.n_edges


def test_quotient_partition_mismatch(fan_five):
    with pytest.raises(DomainError):
        quotient(fan_five, Partition.from_keys(range(4)))


def test_partition_canonical_class_ids():
    p = Partition.from_keys(["z", "x", "y", "x", "y"])
    assert p.classes == ((0,), (1, 3), (2, 4))
    assert p.class_of == (0, 1, 2, 1, 2)


def test_partition_from_keys():
    p = Partition.from_keys(["a", "b", "a", "c", "b"])
    assert p.classes == ((0, 2), (1, 4), (3,))


@given(
    st.lists(
        st.one_of(
            st.integers(-2, 2), st.booleans(), st.text(max_size=1), st.tuples(st.integers(0, 1))
        ),
        max_size=14,
    )
)
@settings(max_examples=150, deadline=None)
def test_partition_from_keys_matches_from_blocks(keys):
    """Keys grouped by equality, in order of first occurrence (``True``
    and ``1`` are one key): the groups are the classes, and each element's
    class id is the index of its group."""
    groups = []
    for x, k in enumerate(keys):
        group = next((g for g in groups if keys[g[0]] == k), None)
        if group is None:
            groups.append([x])
        else:
            group.append(x)
    class_of = tuple(next(i for i, g in enumerate(groups) if x in g) for x in range(len(keys)))
    p = Partition.from_keys(keys)
    assert (p.classes, p.class_of) == (tuple(map(tuple, groups)), class_of)


def test_hypergraph_invariants():
    with pytest.raises(DomainError):
        Hypergraph.build(2, ["a", "b"], [])
    with pytest.raises(DomainError):
        Hypergraph.build(3, [], [])
    with pytest.raises(DomainError):
        Hypergraph.build(3, ["a", "a", "b"], [])
    # repeated vertices inside an edge are legal, empty edge set is legal
    Hypergraph.build(3, ["a", "b"], [(0, 0, 1)])
    Hypergraph.build(3, ["a"])


def test_duplicate_orbits_collapse_with_warning(caplog):
    doc = {
        "ell": 3,
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b", "c"], ["c", "b", "a"]],
    }
    with caplog.at_level(logging.WARNING, logger="hypersig.hypergraph"):
        h = hypergraph_from_json(doc)
    assert h.n_edges == 1
    assert [r.getMessage() for r in caplog.records] == [
        "collapsed 1 duplicate edge orbit(s)"
    ]


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"vertices": ["a"], "edges": []},
        {"ell": 3, "vertices": [], "edges": []},
        {"ell": 3, "vertices": ["a", "a", "b"], "edges": []},
        {"ell": 3, "vertices": ["a", "b", "c"], "edges": [["a", "b"]]},
        {"ell": 3, "vertices": ["a", "b", "c"], "edges": [["a", "b", "nope"]]},
        {"ell": "3", "vertices": ["a"], "edges": []},
        {"ell": 2, "vertices": ["a", "b"], "edges": []},
        {"ell": True, "vertices": ["a"], "edges": []},
        {"ell": False, "vertices": ["a", "b", "c"], "edges": []},
        {"ell": 3.0, "vertices": ["a", "b", "c"], "edges": []},
    ],
)
def test_json_format_errors(doc):
    with pytest.raises(FormatError):
        hypergraph_from_json(doc)


def test_json_rejects_bool_arity():
    with pytest.raises(FormatError, match="'ell' must be an integer"):
        hypergraph_from_json({"ell": True, "vertices": ["a", "b", "c"], "edges": []})


@pytest.mark.parametrize(
    "edges,message",
    [
        ([["a", "b", "z"]], "edge ['a', 'b', 'z'] references unknown vertex"),
        ([["a", "b", ["c"]]], "edge ['a', 'b', ['c']] references unknown vertex"),
        (
            [["c", "b", "a"], ["a", "z", "b"], ["a", "b"]],
            "edge ['a', 'z', 'b'] references unknown vertex",
        ),
        (
            [["a", "b", "c"], ["a", "b"], ["z", "b", "c"]],
            "edge ['a', 'b'] must be an array of 3 vertex labels",
        ),
    ],
    ids=["unknown", "unhashable", "unknown-before-short", "short-before-unknown"],
)
def test_json_edge_messages_name_the_first_faulty_edge(edges, message):
    doc = {"ell": 3, "vertices": ["a", "b", "c"], "edges": edges}
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        hypergraph_from_json(doc)


def test_from_labels_rejects_unhashable_label_as_domain_error():
    message = "edge ('a', 'b', ['c']) references unknown vertex"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph.from_labels(3, ["a", "b", "c"], [("a", "b", ["c"])])


label_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
        min_size=1,
        max_size=6,
    ),
    min_size=3,
    max_size=7,
    unique=True,
)


@st.composite
def hypergraphs(draw):
    labels = draw(label_strategy)
    n = len(labels)
    m = draw(st.integers(min_value=0, max_value=6))
    edges = [
        tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3))))
        for _ in range(m)
    ]
    return Hypergraph.build(3, labels, edges)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_save_load_roundtrip_is_byte_stable(tmp_path_factory, h):
    path = tmp_path_factory.mktemp("io") / "h.json"
    save_hypergraph(h, path)
    first = path.read_bytes()
    reloaded = load_hypergraph(path)
    assert reloaded == h
    save_hypergraph(reloaded, path)
    assert path.read_bytes() == first


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_quotient_by_components_is_constant_edges(h):
    q = quotient(h, components(h))
    assert all(len(set(e)) == 1 for e in q.edges)
    assert q.n_edges <= q.n_vertices


def test_dumps_has_fixed_key_order(triangle):
    text = dumps_hypergraph(triangle)
    doc = json.loads(text)
    assert list(doc) == ["ell", "vertices", "edges"]
    assert text.endswith("\n")
