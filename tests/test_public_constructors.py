"""Every public constructor either builds a valid object or raises a
``HypersigError`` subclass, never a bare ``TypeError``, ``ValueError`` or
``AttributeError``: hypothesis draws the arity, ids, labels and values
from ints, bools, floats, strings, ``Fraction``s, ``None`` and lists.
An edge or a map's or a signal's row may be replaced by any of these
too, and each whole sequence (vertices, edges, rows, partition keys, a
class map) by ``None``, an int or a float. What a constructor builds
reads back equal through another way in."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersig import (
    DomainError,
    Hypergraph,
    HypersigError,
    LinearMap,
    Partition,
    Signal,
    SweepConfig,
    attach_simplex,
    centroid_map,
    constant_space,
    dumps_hypergraph,
    fan,
    hypergraph_from_json,
    mountain_range,
    quotient,
    random_hypergraph,
    universal_map,
)
from oracle import edge_loop_quotient

odd = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=2),
    st.fractions(max_denominator=3),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)


def mostly(clean, other):
    """Draws of ``clean``, and about one time in four of ``other``."""
    return st.tuples(st.integers(0, 3), clean, other).map(lambda t: t[2] if t[0] == 0 else t[1])


def spoiled(clean):
    """Lists drawn from ``clean``, about one in four with one element
    replaced by an odd value, as lists or as tuples: so every constructor
    also builds."""

    def spoil(drawn):
        items, i, value = drawn
        if items:
            items = [*items]
            items[i % len(items)] = value
        return items

    lists = mostly(clean, st.tuples(clean, st.integers(0, 9), odd).map(spoil))
    return st.one_of(lists, lists.map(tuple))


def sequence(clean):
    """Draws of ``clean``, and about one time in four ``None``, an int or
    a float in place of the whole sequence."""
    return mostly(clean, st.one_of(st.none(), st.integers(), st.floats()))


def spoiled_lists(items, min_size, max_size):
    """:func:`sequence` of :func:`spoiled` lists of :func:`spoiled` triples
    of ``items``."""
    triples = spoiled(st.lists(items, min_size=3, max_size=3))
    return sequence(spoiled(st.lists(triples, min_size=min_size, max_size=max_size)))


arities = mostly(st.sampled_from([3, 3, 3, 4, 2]), odd)
labels = sequence(spoiled(st.lists(st.sampled_from("abcde"), min_size=3, max_size=5, unique=True)))
id_edges = spoiled_lists(st.integers(0, 2), 0, 4)
label_edges = spoiled_lists(st.sampled_from("abc"), 0, 4)
rows = spoiled_lists(st.integers(-3, 3), 0, 3)
keys = sequence(spoiled(st.lists(st.sampled_from("abc"), max_size=5)))
numbered = st.lists(st.integers(0, 3), max_size=5).map(
    lambda ks: [list(dict.fromkeys(ks)).index(k) for k in ks]
)  # class ids in order of first occurrence
class_maps = sequence(spoiled(st.one_of(numbered, st.lists(st.integers(-1, 3), max_size=5))))


def refused(make, *args):
    """``make(*args)``, or None when it raises a ``HypersigError``; any
    other exception fails the test."""
    try:
        return make(*args)
    except HypersigError:
        return None


def assert_valid(h):
    """A constructed hypergraph holds only int ids and str labels: it
    renders, and reads back equal."""
    if h is not None:
        assert hypergraph_from_json(json.loads(dumps_hypergraph(h))) == h


def as_tuple(x):
    return tuple(x) if isinstance(x, list) else x


def canonical(edges):
    """Each edge sorted, the edges sorted and distinct, as tuples; None
    when some id does not sort or hash."""
    try:
        return tuple(sorted(set(map(tuple, map(sorted, edges)))))
    except TypeError:
        return None


@given(arities, labels, id_edges)
@settings(max_examples=300, deadline=None)
def test_hypergraph_constructor_builds_or_refuses(ell, vertices, edges):
    """As drawn, as tuples, and with the edges canonical where they sort,
    so that ids of other types reach the whole-sequence checks."""
    assert_valid(refused(Hypergraph, ell, vertices, edges))
    as_tuples = tuple(map(as_tuple, edges)) if isinstance(edges, (list, tuple)) else edges
    assert_valid(refused(Hypergraph, ell, as_tuple(vertices), as_tuples))
    sorted_edges = canonical(edges)
    if sorted_edges is not None:
        assert_valid(refused(Hypergraph, ell, as_tuple(vertices), sorted_edges))


@given(arities, labels, id_edges)
@settings(max_examples=300, deadline=None)
def test_build_builds_or_refuses(ell, vertices, edges):
    assert_valid(refused(Hypergraph.build, ell, vertices, edges))


@given(arities, labels, label_edges)
@settings(max_examples=300, deadline=None)
def test_from_labels_builds_or_refuses(ell, vertices, edges):
    assert_valid(refused(Hypergraph.from_labels, ell, vertices, edges))


@given(rows)
@settings(max_examples=300, deadline=None)
def test_map_and_signal_rows_build_or_refuse(drawn):
    """Through each constructor. A map built is its rows of ``Fraction``
    entries, ``r`` of them, each ``ell`` long, and they build it again."""
    built = [refused(LinearMap, drawn), refused(Signal, drawn)]
    for obj in filter(None, built):
        table = obj.entries if isinstance(obj, LinearMap) else obj.values
        assert all(type(v) is Fraction for row in table for v in row)
        if isinstance(obj, LinearMap):
            assert {len(row) for row in table} == {obj.ell} and len(table) == obj.r >= 1
            assert LinearMap(obj.entries) == obj


@given(keys)
@settings(max_examples=100, deadline=None)
def test_partition_from_keys_builds_or_refuses(drawn):
    part = refused(Partition.from_keys, drawn)
    if part is not None:
        assert sorted(x for block in part.classes for x in block) == list(range(len(drawn)))


def wheel(n):
    """A hypergraph on ``n`` vertices, at least one, with every triple of
    consecutive ids, cyclically, as an edge."""
    n = max(n, 1)
    edges = [(x, (x + 1) % n, (x + 2) % n) for x in range(n)]
    return Hypergraph.build(3, list("abcdefg"[:n]), edges)


@given(class_maps)
@settings(max_examples=200, deadline=None)
def test_partition_constructor_builds_or_refuses(drawn):
    """A partition built is its class map: ``from_keys`` of that map
    builds it again, and it quotients a hypergraph on as many vertices as
    the edge loop does, or the quotient is refused with a DomainError."""
    part = refused(Partition, drawn)
    if part is not None:
        assert Partition.from_keys(part.class_of) == part
        h = wheel(part.n_elements)
        try:
            q = quotient(h, part)
        except DomainError:
            assert part.n_elements != h.n_vertices
        else:
            assert q == edge_loop_quotient(h, part.class_of)


TRIANGLE = Hypergraph.build(3, ("a", "b", "c"), [(0, 1, 2)])

# id: (call with one sequence replaced, its name, with "{!r}" the value, what it holds, and
# valid items)
SEQUENCE_ENTRIES = {
    "map-rows": (LinearMap, "map rows", "rows", ((1, 2, 3),)),
    "signal-rows": (Signal, "signal rows", "rows", ((0, 1),)),
    "map-row": (lambda v: LinearMap([v]), "map row 0", "entries", (1, 2, 3)),
    "signal-row": (lambda v: Signal([[0], v]), "signal row 1", "values", (1,)),
    "build-vertices": (lambda v: Hypergraph.build(3, v), "vertices", "labels", tuple("abc")),
    "from-labels-vertices": (
        lambda v: Hypergraph.from_labels(3, v, [tuple("cba")]), "vertices", "labels", tuple("abc")
    ),
    "from-labels-edge": (
        lambda v: Hypergraph.from_labels(3, tuple("abc"), [v]), "edge {!r}", "labels", tuple("abc")
    ),
    "partition-keys": (Partition.from_keys, "keys", "hashables", tuple("ab")),
    "attach-simplex-labels": (
        lambda v: attach_simplex(TRIANGLE, "a", v), "new labels", "labels", tuple("xy")
    ),
    "sweep-counts": (lambda v: SweepConfig(v, (1,), 1, 0), "vertex_counts", "ints", (30,)),
    "sweep-densities": (
        lambda v: SweepConfig((30,), v, 1, 0), "densities", "ints or Fractions", (1,)
    ),
}
READ_AS_ITEMS = {  # the valid items as a str, a set and a dict: each iterates, as no sequence
    "str": lambda items: "".join(map(str, items)),
    "set": set,
    "dict": dict.fromkeys,
}


def read_as_items(entry, kind):
    """A row of :func:`test_a_sequence_of_the_wrong_type_is_named`: the
    entry given its valid items as a ``str``, a set or a dict."""
    make, name, of, items = SEQUENCE_ENTRIES[entry]
    value = READ_AS_ITEMS[kind](items)
    message = f"{name.format(value)} must be a sequence of {of}, got {type(value).__name__}"
    return pytest.param(lambda: make(value), message, id=f"{entry}-{kind}")


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(
            lambda: LinearMap(None), "map rows must be a sequence of rows, got NoneType",
            id="map-rows",
        ),
        pytest.param(
            lambda: LinearMap([None]), "map row 0 must be a sequence of entries, got NoneType",
            id="map-row",
        ),
        pytest.param(
            lambda: Signal([[0], 1.5]), "signal row 1 must be a sequence of values, got float",
            id="signal-row",
        ),
        pytest.param(
            lambda: Hypergraph.build(3, None, []),
            "vertices must be a sequence of labels, got NoneType",
            id="build-vertices",
        ),
        pytest.param(
            lambda: Hypergraph.from_labels(3, 7, []),
            "vertices must be a sequence of labels, got int",
            id="from-labels-vertices",
        ),
        pytest.param(
            lambda: Hypergraph.from_labels(3, tuple("abc"), None),
            "edges must be a sequence of label sequences, got NoneType",
            id="from-labels-edges",
        ),
        pytest.param(lambda: LinearMap([]), "map has no rows", id="map-r"),
        pytest.param(lambda: LinearMap([[]]), "map row 0 is empty", id="map-ell"),
        pytest.param(
            lambda: Partition.from_keys(None), "keys must be a sequence of hashables, got NoneType",
            id="partition-keys",
        ),
        pytest.param(
            lambda: Partition.from_keys(["a", ["b"]]),
            "keys must be hashable: unhashable type: 'list'",
            id="partition-unhashable-key",
        ),
        pytest.param(
            lambda: Hypergraph.from_labels(3, ["a"], [None]),
            "edge None must be a sequence of labels, got NoneType",
            id="from-labels-edge-none",
        ),
        pytest.param(
            lambda: Hypergraph.from_labels(3, ["a"], [5]),
            "edge 5 must be a sequence of labels, got int",
            id="from-labels-edge-int",
        ),
        pytest.param(
            lambda: Hypergraph.from_labels(3, ["a"], [["a", "a", "a"], 2.5]),
            "edge 2.5 must be a sequence of labels, got float",
            id="from-labels-edge-float",
        ),
        pytest.param(
            lambda: attach_simplex(TRIANGLE, "a", None),
            "new labels must be a sequence of labels, got NoneType",
            id="attach-simplex-labels",
        ),
        pytest.param(
            lambda: attach_simplex(TRIANGLE, "a", [["x"], "y"]),
            "vertex 3 has label ['x'] of type list; expected str",
            id="attach-simplex-unhashable-label",
        ),
        *(read_as_items(entry, kind) for entry in SEQUENCE_ENTRIES for kind in READ_AS_ITEMS),
    ],
)
def test_a_sequence_of_the_wrong_type_is_named(build, message):
    """Each constructor names the argument, the row or the edge that is
    not the sequence it takes, and its type; a map names its missing rows
    (``r`` would be 0) and its empty row 0 (``ell`` would be 0). A
    ``str``, a set or a mapping is no sequence of items either, though it
    iterates: as its characters, in hash order, or as its keys. A new
    label that is no string is named as the constructor names it, before
    ``attach_simplex`` hashes it."""
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("entry", SEQUENCE_ENTRIES)
def test_a_sequence_entry_reads_a_one_shot_iterator_once(entry):
    """Each sequence entry builds from its valid items as a tuple, a list
    and a one-shot iterator alike: every entry reads its argument once."""
    make, _, _, items = SEQUENCE_ENTRIES[entry]
    assert make(list(items)) == make(iter(items)) == make(items)


INTEGER_ENTRIES = {  # id: (call with one argument replaced, that argument's name, a valid int)
    "hypergraph-arity": (lambda v: Hypergraph(v, ("a", "b", "c"), ((0, 1, 2),)), "arity", 3),
    "build-arity": (lambda v: Hypergraph.build(v, tuple("abc"), [(2, 1, 0)]), "arity", 3),
    "from-labels-arity": (
        lambda v: Hypergraph.from_labels(v, tuple("abc"), [tuple("cba")]), "arity", 3
    ),
    "universal-map-arity": (universal_map, "arity", 3),
    "centroid-map-arity": (centroid_map, "arity", 4),
    "constant-space-count": (lambda v: constant_space(universal_map(3), v), "vertex count", 3),
    "fan-n": (fan, "n", 3),
    "mountain-range-n": (mountain_range, "n", 3),
    "random-n": (lambda v: random_hypergraph(v, 5, 3, 1), "n", 10),
    "random-m": (lambda v: random_hypergraph(10, v, 3, 1), "m", 5),
    "random-arity": (lambda v: random_hypergraph(10, 5, v, 1), "arity", 3),
    "random-seed": (lambda v: random_hypergraph(10, 5, 3, v), "seed", 1),
    "sweep-count": (lambda v: SweepConfig((v,), (1,), 1, 0), "vertex_counts entry", 30),
    "sweep-runs": (lambda v: SweepConfig((30,), (1,), v, 0), "runs_per_cell", 3),
    "sweep-seed": (lambda v: SweepConfig((30,), (1,), 1, v), "seed", 0),
    "sweep-arity": (lambda v: SweepConfig((30,), (1,), 1, 0, ell=v), "ell", 3),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, None, "3"], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_a_count_arity_or_seed_that_is_no_int_is_named(entry, value):
    """Every public function that takes a count, an arity or a seed takes
    an ``int`` and nothing else: a ``float`` equal to an int, a ``bool``
    (an int subclass), ``None`` or a string raises a ``DomainError``
    naming the argument, the value and its type. The valid int builds."""
    make, name, valid = INTEGER_ENTRIES[entry]
    make(valid)
    message = f"{name} {value!r} has type {type(value).__name__}; expected int"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make(value)
