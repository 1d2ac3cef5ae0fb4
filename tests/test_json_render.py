"""Every file is written as ``json.dumps(doc, indent=2)`` plus a newline.
Each written document has one renderer that builds that text from the
integer structure, without the document and the pure-Python encoder, so
these tests hold the ``frame`` documents' renderers and ``save_signal``
to ``json.dumps`` of the reference documents of ``tests/oracle.py`` byte
for byte, and every golden output file to ``json.dumps`` of its parsed
document."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersig import (
    FrameResult,
    Hypergraph,
    Partition,
    Signal,
    dumps_hypergraph,
    load_signal,
    quotient,
    save_signal,
)
from hypersig.frames import _classes_text
from oracle import frame_result_to_json, hypergraph_to_json, signal_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# labels that stress escaping and the renderer's %-templates
texts = st.one_of(
    st.text(),
    st.text(alphabet='%s"\\,[]{}: \n\té\U0001f4a1'),
    st.lists(st.sampled_from(["\ud83d", "\udca1", "\x00", "a"])).map("".join),  # lone surrogates
)


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
    assert dumps_hypergraph(h) == json.dumps(hypergraph_to_json(h), indent=2) + "\n"
    assert frame_text == json.dumps(hypergraph_to_json(result.frame), indent=2) + "\n"
    classes_doc = frame_result_to_json(result, h)
    assert _classes_text(result, h, frame_text) == json.dumps(classes_doc, indent=2) + "\n"


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
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_save_signal_writes_the_reference_document(tmp_path):
    """``save_signal`` writes the reference document byte for byte, not
    nested in an array: labels are escaped to ASCII, lone surrogates
    included, and a newline followed by the indent it would be cut by
    stays in its label."""
    h = Hypergraph.build(3, ["é", '%s"', "\ud83d", "a\n  b"], [(0, 1, 2), (1, 2, 3)])
    s = Signal([[0, 1, -1, Fraction(-1, 2)]] * 3)
    path = tmp_path / "s.json"
    save_signal(h, s, path)
    assert path.read_text(encoding="ascii") == json.dumps(signal_to_json(h, s), indent=2) + "\n"
    assert load_signal(path) == (h.vertices, 3, s)
