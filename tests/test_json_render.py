"""Every file is written as ``json.dumps(doc, indent=2)`` plus a newline;
``hypersig.hypergraph._dumps`` renders that text without the pure-Python
encoder, so these tests hold it to ``json.dumps`` byte for byte."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
