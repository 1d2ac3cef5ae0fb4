"""Every file is written as ``json.dumps(doc, indent=2)`` plus a newline;
``hypersig.hypergraph._dumps`` renders that text without the pure-Python
encoder, so these tests hold it to ``json.dumps`` byte for byte. The
``frame`` documents are rendered from the integer structure without a
document at all, and are held to ``_dumps`` of the reference documents."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersig import (
    FrameResult,
    Hypergraph,
    Partition,
    dumps_hypergraph,
    frame_result_to_json,
    hypergraph_to_json,
    quotient,
)
from hypersig.frames import _classes_text
from hypersig.hypergraph import _dumps

GOLDEN = Path(__file__).resolve().parent / "golden"

# labels that stress escaping and the renderer's %-templates
texts = st.one_of(
    st.text(),
    st.text(alphabet='%s"\\,[]{}: \n\té\U0001f4a1'),
    st.lists(st.sampled_from(["\ud83d", "\udca1", "\x00", "a"])).map("".join),  # lone surrogates
)
string_rows = st.lists(st.lists(texts, max_size=4), max_size=5)  # empty and mixed-length rows
json_docs = st.recursive(
    st.one_of(texts, st.integers(), string_rows, st.lists(texts)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20,
)


@given(json_docs)
@example([])
@example({})
@example([[]])
@example([[], ["a"]])
@example([["a", "b"], ["c"], ["%s", "%%"]])
@example({"k": [], "j": {}, "i": [{}]})
@example([[1, 2], "a"])
@settings(max_examples=400, deadline=None)
def test_dumps_matches_json_dumps_at_indent_two(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"


@st.composite
def quotients(draw):
    """A labelled hypergraph at arity 3-6, its edges free to repeat a
    vertex, and a discrete, one-class or mixed partition of its vertices."""
    ell = draw(st.integers(3, 6))
    labels = draw(st.lists(texts, min_size=1, max_size=8, unique=True))
    n = len(labels)
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.lists(vertex, min_size=ell, max_size=ell), max_size=8))
    kind = draw(st.sampled_from(["discrete", "one-class", "mixed"]))
    if kind == "discrete":
        keys = range(n)
    elif kind == "one-class":
        keys = [0] * n
    else:
        keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Hypergraph.build(ell, labels, edges), Partition.from_keys(keys)


@given(quotients())
@example((Hypergraph.build(3, ["a"]), Partition.from_keys([0])))  # one vertex, no edge
@example((Hypergraph.build(4, ["%s", "a\nb"], [(0, 1, 1, 1)]), Partition.from_keys([0, 0])))
@example((Hypergraph.build(3, ["x", "y", "z"], [(0, 1, 2)]), Partition.from_keys([1, 0, 1])))
@settings(max_examples=300, deadline=None)
def test_frame_documents_match_the_reference_documents(case):
    h, fusion = case
    result = FrameResult(frame=quotient(h, fusion), fusion=fusion)
    frame_text = dumps_hypergraph(result.frame)
    assert dumps_hypergraph(h) == _dumps(hypergraph_to_json(h))
    assert frame_text == _dumps(hypergraph_to_json(result.frame))
    assert _classes_text(result, h, frame_text) == _dumps(frame_result_to_json(result, h))


# every JSON document the CLI wrote or printed in the golden corpus (the
# inputs are written by hand)
WRITTEN = sorted(
    p
    for p in GOLDEN.glob("*/*")
    if p.name.startswith("out.") and p.suffix == ".json"
    or p.name == "stdout" and p.read_text(encoding="utf-8").startswith(("{", "["))
)


@pytest.mark.parametrize("path", WRITTEN, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_dumps_round_trips_every_golden_output_file(path):
    text = path.read_text(encoding="utf-8")
    assert _dumps(json.loads(text)) == text


@pytest.mark.parametrize(
    "doc",
    [True, False, 1.5, None, ("a",), {"a"}, {1: "a"}, [False], [["a", True]], {"a": None}],
    ids=repr,
)
def test_dumps_rejects_values_no_document_holds(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
