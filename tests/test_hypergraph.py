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
from hypersig.hypergraph import _component_roots, _write_texts
from oracle import component_roots


def two_triangles():
    return Hypergraph.from_labels(
        3, ["a", "b", "c", "d", "e", "f"], [("a", "b", "c"), ("d", "e", "f")]
    )


# Edges are canonicalized in one place, Hypergraph.build, which every
# other constructor goes through. The JSON reader goes through it only for
# edges that do not arrive canonical.


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


@st.composite
def union_find_inputs(draw):
    """Vertex counts from 1, edges of one to five vertices that may repeat
    one, and vertices in no edge."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.lists(vertex, min_size=1, max_size=5), max_size=10))


def chain_inputs():
    """Long chains in both directions: hanging each old root under a new
    vertex builds one path of every vertex, which the finds must halve."""
    n = 2000
    forward = [(i, i + 1, i + 2) for i in range(0, n - 2, 2)]
    yield n, forward
    yield n, forward[::-1]
    yield n, [(k, k - 1) for k in range(1, n)]
    yield n, [(k - 1, k) for k in range(n - 1, 0, -1)]
    yield n, [(k, k, k - 1) for k in range(1, n, 2)]  # repeated vertices, isolated odd tail


@given(union_find_inputs())
@settings(max_examples=300, deadline=None)
def test_component_roots_match_the_reference_roots(case):
    n, edges = case
    assert _component_roots(n, edges) == component_roots(n, edges)


@pytest.mark.parametrize(
    "case", chain_inputs(), ids=["forward", "backward", "pairs-up", "pairs-down", "repeats"]
)
def test_component_roots_match_the_reference_on_long_chains(case):
    n, edges = case
    assert _component_roots(n, edges) == component_roots(n, edges)


def test_component_roots_of_one_vertex():
    assert _component_roots(1, []) == [0]
    assert _component_roots(1, [(0, 0, 0)]) == [0]


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


@pytest.mark.parametrize(
    "edges,message",
    [
        (((0, 1),), "edge (0, 1) has wrong arity"),
        (((0, 1, 3),), "edge (0, 1, 3) references unknown vertex id"),
        (((-1, 0, 1),), "edge (-1, 0, 1) references unknown vertex id"),
        (((1, 0, 2),), "edge (1, 0, 2) is not canonical (sorted)"),
        (((0, 1, 2), (0, 1, 2)), "duplicate edges"),
        (((0, 1, 2), (0, 0, 1)), "edges not in canonical order"),
        (((0, 1, 2), (0, 1, 2), (2, 1, 0)), "edge (2, 1, 0) is not canonical (sorted)"),
        (((0, 0, 1), (0, 1, 7), (0, 1)), "edge (0, 1, 7) references unknown vertex id"),
        (((0, 0, 1), (0, 2, 1)), "edge (0, 2, 1) is not canonical (sorted)"),
        (((0, 0, 1), [0, 1, 2]), "edge [0, 1, 2] has type list; expected tuple"),
        ([(0, 0, 1), (0, 1, 2)], "edges must be a tuple of tuples, got list"),
    ],
    ids=["arity", "id-too-large", "negative-id", "unsorted-edge", "duplicate", "out-of-order",
         "edge-fault-before-duplicate", "first-faulty-edge", "unsorted-edge-in-order",
         "list-edge", "list-of-edges"],
)
def test_direct_construction_names_the_fault(edges, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph(3, ("a", "b", "c"), edges)


NON_INT_IDS = [(0, 1, "c"), (0, 1, None), (0, 1, 2.0), (0, 1, True)]


@pytest.mark.parametrize(
    "edge,kind",
    zip(NON_INT_IDS, ["str", "NoneType", "float", "bool"]),
    ids=list(map(repr, NON_INT_IDS)),
)
def test_direct_construction_with_a_non_int_id_is_a_domain_error(edge, kind):
    """A float id would index a list, a bool would stand for vertex 1: the
    constructor names the edge, the id and its type."""
    message = f"edge {edge} has vertex id {edge[2]!r} of type {kind}; expected int"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph(3, ("a", "b", "c"), (edge,))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph(3, ("a", "b", "c"), ((0, 0, 1), edge))


@pytest.mark.parametrize(
    "ell,vertices,message",
    [
        (3, (1, 2, 3), "vertex 0 has label 1 of type int; expected str"),
        (3, ("a", None, "c"), "vertex 1 has label None of type NoneType; expected str"),
        (3, ("a", "b", ["c"]), "vertex 2 has label ['c'] of type list; expected str"),
        (3, ["a", "b", "c"], "vertices must be a tuple, got list"),
        (3.0, ("a", "b", "c"), "arity 3.0 has type float; expected int"),
        (True, ("a", "b", "c"), "arity True has type bool; expected int"),
    ],
    ids=["int-labels", "none-label", "unhashable-label", "list-of-labels", "float-arity",
         "bool-arity"],
)
def test_direct_construction_names_a_label_or_arity_of_the_wrong_type(ell, vertices, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph(ell, vertices, ())


def test_build_and_from_labels_refuse_what_they_cannot_sort_or_hash():
    """``build`` sorts each edge before the constructor sees it, and
    ``from_labels`` indexes the labels first: an id that sorts against no
    int, and a label that does not hash, are refused there by name."""
    with pytest.raises(DomainError, match="^edges must be sequences of int vertex ids: "):
        Hypergraph.build(3, "abc", [(0, 1, None)])
    message = "edge (0, 1, 2.0) has vertex id 2.0 of type float; expected int"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph.build(3, "abc", [(2.0, 1, 0)])
    message = "vertex 1 has label ['b'] of type list; expected str"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph.from_labels(3, ["a", ["b"], "c"], [["a", "a", "c"]])
    message = "vertex 0 has label 1 of type int; expected str"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Hypergraph.from_labels(3, [1, 2, 3], [[1, 2, 3]])


def _checked_edges(ell, n, edges):
    """The per-edge checks of a directly built Hypergraph, one at a time:
    the reference its whole-sequence checks must agree with."""
    if not isinstance(edges, tuple):
        return f"edges must be a tuple of tuples, got {type(edges).__name__}"
    for e in edges:
        if not isinstance(e, tuple):
            return f"edge {e!r} has type {type(e).__name__}; expected tuple"
        if len(e) != ell:
            return f"edge {e} has wrong arity"
        odd = [v for v in e if isinstance(v, bool) or not isinstance(v, int)]
        if odd:
            return f"edge {e} has vertex id {odd[0]!r} of type {type(odd[0]).__name__}; expected int"
        if any(not (0 <= v < n) for v in e):
            return f"edge {e} references unknown vertex id"
        if tuple(sorted(e)) != e:
            return f"edge {e} is not canonical (sorted)"
    if len(set(edges)) != len(edges):
        return "duplicate edges"
    if tuple(sorted(edges)) != edges:
        return "edges not in canonical order"
    return None


ids_edge = st.lists(st.integers(-1, 4), min_size=2, max_size=4)
edge_lists = st.lists(st.one_of(ids_edge.map(tuple), ids_edge.map(sorted).map(tuple)), max_size=5)
odd_id = st.sampled_from([True, False, 2.0, None, "c", [1]])
odd_edges = st.one_of(  # an id of another type at any position, or a list
    st.tuples(ids_edge, st.integers(0, 3), odd_id).map(lambda t: (*t[0][: t[1]], t[2], *t[0][t[1] :])),
    ids_edge.map(sorted),
)
mixed_edge_lists = st.lists(st.one_of(ids_edge.map(sorted).map(tuple), odd_edges), max_size=5)


@given(
    st.one_of(
        edge_lists.map(tuple), edge_lists.map(sorted).map(tuple), mixed_edge_lists.map(tuple),
        edge_lists.map(sorted),
    )
)
@settings(max_examples=300, deadline=None)
def test_direct_construction_agrees_with_the_per_edge_checks(edges):
    expected = _checked_edges(3, 4, edges)
    try:
        Hypergraph(3, ("a", "b", "c", "d"), edges)
    except DomainError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


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


def _counted_builds(monkeypatch) -> list:
    """Patch ``Hypergraph.build`` to record each call, then build as before."""
    calls = []
    build = Hypergraph.build.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Hypergraph, "build", classmethod(counting))
    return calls


def test_a_canonical_document_is_read_without_a_build(monkeypatch, fan_five):
    doc = json.loads(dumps_hypergraph(fan_five))
    calls = _counted_builds(monkeypatch)
    assert hypergraph_from_json(doc) == fan_five
    assert calls == []
    doc["edges"].reverse()
    assert hypergraph_from_json(doc) == fan_five
    assert len(calls) == 1


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _read_logged(doc):
    """``hypergraph_from_json(doc)`` and the messages it logged."""
    logger = logging.getLogger("hypersig.hypergraph")
    handler = _Records()
    logger.addHandler(handler)
    try:
        return hypergraph_from_json(doc), handler.messages
    finally:
        logger.removeHandler(handler)


@st.composite
def label_documents(draw):
    """Documents of canonical edges, then maybe with labels shuffled inside
    edges, edges shuffled, and edges repeated."""
    ell = draw(st.integers(3, 5))
    labels = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    vertex = st.sampled_from(labels)
    edges = draw(st.lists(st.lists(vertex, min_size=ell, max_size=ell), max_size=8))
    h = Hypergraph.build(ell, labels, [[labels.index(x) for x in e] for e in edges])
    rows = [list(h.edge_labels(e)) for e in h.edges]
    if draw(st.booleans()):
        rows = [draw(st.permutations(row)) for row in rows]
    if draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return {"ell": ell, "vertices": labels, "edges": rows}


@given(label_documents())
@settings(max_examples=300, deadline=None)
def test_reader_matches_building_from_ids(doc):
    index = {lab: i for i, lab in enumerate(doc["vertices"])}
    ids = [[index[x] for x in e] for e in doc["edges"]]
    expected = Hypergraph.build(doc["ell"], doc["vertices"], ids)
    collapsed = len(doc["edges"]) - expected.n_edges
    h, messages = _read_logged(doc)
    assert h == expected
    assert messages == ([f"collapsed {collapsed} duplicate edge orbit(s)"] if collapsed else [])


@pytest.mark.parametrize(
    "edges,collapsed",
    [
        ([["b", "a", "c"], ["a", "c", "d"]], 0),
        ([["a", "c", "b"], ["a", "c", "d"]], 0),
        ([["a", "c", "d"], ["a", "b", "c"]], 0),
        ([["a", "b", "c"], ["a", "b", "c"], ["a", "c", "d"]], 1),
        ([["a", "c", "d"], ["c", "b", "a"], ["a", "b", "c"], ["d", "c", "a"]], 2),
    ],
    ids=["unsorted-edge", "unsorted-edge-in-order", "out-of-order", "duplicate", "all-three"],
)
def test_non_canonical_documents_build_once(monkeypatch, edges, collapsed):
    doc = {"ell": 3, "vertices": ["a", "b", "c", "d"], "edges": edges}
    calls = _counted_builds(monkeypatch)
    h, messages = _read_logged(doc)
    assert h.edges == ((0, 1, 2), (0, 2, 3))
    assert len(calls) == 1
    assert messages == ([f"collapsed {collapsed} duplicate edge orbit(s)"] if collapsed else [])


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
        ("abc", "'edges' must be an array"),
    ],
    ids=["unknown", "unhashable", "unknown-before-short", "short-before-unknown", "not-an-array"],
)
def test_json_edge_messages_name_the_first_faulty_edge(edges, message):
    doc = {"ell": 3, "vertices": ["a", "b", "c"], "edges": edges}
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        hypergraph_from_json(doc)


json_labels = st.sampled_from(["a", "b", "c", "z", ["c"], 1])
json_edges = st.one_of(
    st.lists(json_labels, min_size=2, max_size=4), st.sampled_from(["abc", {"a": 1}, None])
)


@given(st.lists(json_edges, max_size=4))
@settings(max_examples=300, deadline=None)
def test_json_edge_message_names_the_first_faulty_edge_in_list_order(edges):
    doc = {"ell": 3, "vertices": ["a", "b", "c"], "edges": edges}
    for e in edges:  # the first edge of wrong shape or with an unknown label is named
        if not isinstance(e, list) or len(e) != 3:
            expected = f"edge {e!r} must be an array of 3 vertex labels"
            break
        if not all(lab in ("a", "b", "c") for lab in e):
            expected = f"edge {e!r} references unknown vertex"
            break
    else:
        assert hypergraph_from_json(doc).n_edges <= len(edges)
        return
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
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


@pytest.mark.parametrize("failing", [0, 1], ids=["first", "second"])
def test_write_texts_keeps_every_target_when_chunks_raise(tmp_path, failing):
    """A text given as chunks is staged as it is produced: one that raises
    after its first chunk, before or after a text already staged, leaves
    every target byte-identical, renames no file of the call and leaves no
    temporary file."""

    def chunks():
        yield "new "
        raise RuntimeError("injected failure")

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        p.write_bytes(b"old " + p.name.encode())
    texts = ["new a", "new b"]
    texts[failing] = chunks()
    with pytest.raises(RuntimeError, match="injected failure"):
        _write_texts(list(zip(paths, texts)))
    assert [p.read_bytes() for p in paths] == [b"old a.json", b"old b.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

