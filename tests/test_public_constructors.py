"""Every public constructor either builds a valid object or raises a
``HypersigError`` subclass, never a bare ``TypeError``, ``ValueError`` or
``AttributeError``: hypothesis draws the arity, ids, labels and values
from ints, bools, floats, strings, ``Fraction``s, ``None`` and lists.
An edge may be replaced by any of these too; a map's or a signal's rows
are always sequences, of any values."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hypersig import (
    Hypergraph,
    HypersigError,
    LinearMap,
    Signal,
    dumps_hypergraph,
    hypergraph_from_json,
)

odd = st.one_of(
    st.booleans(),
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


arities = mostly(st.sampled_from([3, 3, 3, 4, 2]), odd)
labels = spoiled(st.lists(st.sampled_from("abcde"), min_size=3, max_size=5, unique=True))
id_edges = spoiled(st.lists(spoiled(st.lists(st.integers(0, 2), min_size=3, max_size=3)), max_size=4))
label_edges = spoiled(
    st.lists(spoiled(st.lists(st.sampled_from("abc"), min_size=3, max_size=3)), max_size=4)
)
rows = st.lists(spoiled(st.lists(st.integers(-3, 3), min_size=3, max_size=3)), min_size=1, max_size=3)


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
    as_tuples = tuple(tuple(e) if isinstance(e, list) else e for e in edges)
    assert_valid(refused(Hypergraph, ell, tuple(vertices), as_tuples))
    sorted_edges = canonical(edges)
    if sorted_edges is not None:
        assert_valid(refused(Hypergraph, ell, tuple(vertices), sorted_edges))


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
    linear_map, signal = refused(LinearMap.from_rows, drawn), refused(Signal.from_rows, drawn)
    for table in (linear_map and linear_map.entries, signal and signal.values):
        assert all(type(v) is Fraction for row in table or () for v in row)
