import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersig import (
    Signal,
    dumps_hypergraph,
    fan,
    frame,
    load_hypergraph,
    mountain_range,
    save_hypergraph,
    save_signal,
    verify_signal,
    universal_map,
    signal_from_json,
    signal_space,
    Hypergraph,
)
import hypersig.linalg
import hypersig.signals
from hypersig import cli
from hypersig.cli import main, to_dot
from hypersig.linalg import _integral_rows
from oracle import signal_to_json


def write(path, h):
    save_hypergraph(h, path)
    return str(path)


@pytest.fixture
def fan_path(tmp_path, fan_five):
    return write(tmp_path / "fan.json", fan_five)


def test_signals_command_universal(fan_path, capsys):
    assert main(["signals", "--in", fan_path, "--map", "U"]) == 0
    assert capsys.readouterr().out.strip() == "dim 4, constant 2"


def test_signals_command_centroid(fan_path, capsys):
    assert main(["signals", "--in", fan_path, "--map", "C"]) == 0
    assert capsys.readouterr().out.startswith("dim 1, constant 1")


def test_signals_command_writes_verified_basis(tmp_path, fan_path, fan_five, capsys):
    out = tmp_path / "basis.json"
    assert main(["signals", "--in", fan_path, "--out", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 4
    for doc in docs:
        _, _, sig = signal_from_json(doc)
        assert verify_signal(fan_five, universal_map(3), sig)


def test_signals_command_warns_on_unengaged_map(tmp_path, fan_path, capsys):
    map_path = tmp_path / "t.json"
    map_path.write_text(json.dumps([["1", "0", "1"]]))
    assert main(["signals", "--in", fan_path, "--map", str(map_path)]) == 0
    assert "not engaged" in capsys.readouterr().err


@pytest.mark.parametrize("map_arg", ["U", "C", "skew"])
def test_signals_command_converts_the_map_once(tmp_path, fan_path, map_arg, monkeypatch, capsys):
    """One ``signals --out`` converts the map to integer rows once and
    eliminates the map's own kernel once: the closed form and the printed
    constant count share it."""
    if map_arg == "skew":
        map_arg = str(tmp_path / "skew.json")
        Path(map_arg).write_text(json.dumps([["1", "-2", "1"], ["1/2", "0", "-1/2"]]))
    conversions, kernels = [], []

    def converting(rows):
        rows = _integral_rows(rows)
        conversions.append(rows)
        return rows

    def eliminating(rows, ncols):
        rows = tuple(rows)
        if rows == tuple(tuple((a, y) for a, y in enumerate(r) if y) for r in conversions[0]):
            kernels.append(rows)
        return kernel_basis(rows, ncols)

    kernel_basis = hypersig.signals._kernel_basis
    for module in (hypersig.linalg, hypersig.signals, cli):
        monkeypatch.setattr(module, "_integral_rows", converting, raising=False)
    monkeypatch.setattr(hypersig.signals, "_kernel_basis", eliminating)
    argv = ["signals", "--in", fan_path, "--map", map_arg, "--out", str(tmp_path / "b.json")]
    assert main(argv) == 0
    assert len(conversions) == 1 and len(kernels) == 1
    assert capsys.readouterr().out == {"U": "dim 4, constant 2\n"}.get(map_arg, "dim 1, constant 1\n")


def test_signals_command_arity_mismatch(tmp_path, fan_path, capsys):
    map_path = tmp_path / "t.json"
    # not engaged either: the arity error comes alone, without the warning
    map_path.write_text(json.dumps([["1", "0", "1", "1"]]))
    assert main(["signals", "--in", fan_path, "--map", str(map_path)]) == 1
    assert capsys.readouterr().err == "error: map arity 4 != hypergraph arity 3\n"


def test_frame_command(tmp_path, fan_path, capsys):
    out = tmp_path / "framed.json"
    assert main(["frame", "--in", fan_path, "--out", str(out)]) == 0
    assert "reduction proportion: 1/3" in capsys.readouterr().out
    framed = load_hypergraph(out)
    assert framed.n_vertices == 3 and framed.n_edges == 1
    classes = json.loads((tmp_path / "framed.classes.json").read_text())
    assert classes["classes"] == [["u"], ["v", "x"], ["w", "y"]]


def test_frame_command_folding_free_six(tmp_path, folding_free_six, capsys):
    path = write(tmp_path / "six.json", folding_free_six)
    out = tmp_path / "framed.json"
    assert main(["frame", "--in", path, "--out", str(out)]) == 0
    classes = json.loads((tmp_path / "framed.classes.json").read_text())
    assert classes["classes"] == [["u", "z"], ["v", "x"], ["w", "y"]]
    assert "reduction proportion: 1/4" in capsys.readouterr().out


def test_frame_command_stable_input(tmp_path, triangle, capsys):
    path = write(tmp_path / "tri.json", triangle)
    out = tmp_path / "framed.json"
    assert main(["frame", "--in", path, "--out", str(out)]) == 0
    assert "reduction proportion: 1" in capsys.readouterr().out
    classes = json.loads((tmp_path / "framed.classes.json").read_text())
    assert all(len(c) == 1 for c in classes["classes"])


def test_frame_command_rejects_disconnected(tmp_path, capsys):
    h = Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
    path = write(tmp_path / "dis.json", h)
    assert main(["frame", "--in", path]) == 1
    assert "components" in capsys.readouterr().err


def test_frame_command_idempotent_at_cli_level(tmp_path, fan_path, capsys):
    out1 = tmp_path / "f1.json"
    main(["frame", "--in", fan_path, "--out", str(out1)])
    out2 = tmp_path / "f2.json"
    assert main(["frame", "--in", str(out1), "--out", str(out2)]) == 0
    classes = json.loads((tmp_path / "f2.classes.json").read_text())
    assert all(len(c) == 1 for c in classes["classes"])
    assert out1.read_text() == out2.read_text()


def test_components_command(tmp_path, fan_path, capsys):
    assert main(["components", "--in", fan_path]) == 0
    assert capsys.readouterr().out.strip() == "components: 1, centroid signal dimension: 1"
    h = Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
    path = write(tmp_path / "two.json", h)
    assert main(["components", "--in", path]) == 0
    assert "components: 2, centroid signal dimension: 2" in capsys.readouterr().out


def test_components_command_flags_uncovered_vertices(tmp_path, capsys):
    # an edge-free vertex contributes one component but ell unconstrained
    # signal dimensions, so the cross-check reports the discrepancy
    h = Hypergraph.build(3, ["a", "b", "c", "d"], [(0, 1, 2)])
    path = write(tmp_path / "loose.json", h)
    assert main(["components", "--in", path]) == 1
    out = capsys.readouterr()
    assert "components: 2, centroid signal dimension: 4" in out.out
    assert "disagree" in out.err
    assert "1 vertex(es) lie in no edge" in out.err
    assert "internal error" not in out.err


def test_components_command_reports_internal_error(tmp_path, fan_path, monkeypatch, capsys):
    # a mismatch with every vertex covered is a bug, and is reported as one
    monkeypatch.setattr(cli, "component_count_via_C", lambda h: 2)
    assert main(["components", "--in", fan_path]) == 1
    assert "internal error: component counts disagree" in capsys.readouterr().err


def test_generate_fan(tmp_path, capsys):
    out = tmp_path / "fan.json"
    assert main(["generate", "fan", "--n", "3", "--out", str(out)]) == 0
    assert load_hypergraph(out) == fan(3)


def test_generate_mountain(tmp_path):
    out = tmp_path / "m.json"
    assert main(["generate", "mountain", "--n", "4", "--out", str(out)]) == 0
    h = load_hypergraph(out)
    assert h == mountain_range(4)
    assert h.n_vertices == 9 and h.n_edges == 4


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "random", "--n", "20", "--m", "18", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_random_infeasible(tmp_path, capsys):
    assert main(["generate", "random", "--n", "9", "--m", "2", "--seed", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_generate_random_requires_m(capsys):
    assert main(["generate", "random", "--n", "9"]) == 1


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--sizes", "8", "--densities", "1,1.5", "--runs", "2",
        "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,m,density,runs,mean_reduction,stddev"
    assert len(lines) == 3
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize(
    "flag, value, code",
    [("--sizes", "abc", 2), ("--densities", "x", 2), ("--densities", "1/0", 2),
     ("--sizes", "0", 1), ("--densities", "-1", 1)],
)
def test_sweep_rejects_bad_lists(flag, value, code, capsys):
    # unparsable items are format errors; parsed but invalid ones stay
    # domain errors
    assert main(["sweep", "--runs", "1", flag, value]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if code == 2:
        assert err == f"error: invalid value {value!r} for {flag}\n"


def test_sweep_rejects_density_too_large_for_csv(capsys):
    assert main(["sweep", "--sizes", "8", "--densities", "1e400", "--runs", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: density 1.00000e+400 is too large: the CSV renders densities as floats\n"
    )


def test_verify_command_pass(tmp_path, triangle, skew_map, skew_signal, capsys):
    hpath = write(tmp_path / "tri.json", triangle)
    spath = tmp_path / "sig.json"
    save_signal(triangle, skew_signal, spath)
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps([["1", "-2", "1"]]))
    assert main(["verify", "--in", hpath, "--signal", str(spath), "--map", str(mpath)]) == 0
    assert capsys.readouterr().out.strip() == "pass"


def test_verify_command_zero_signal(tmp_path, triangle, capsys):
    hpath = write(tmp_path / "tri.json", triangle)
    spath = tmp_path / "sig.json"
    save_signal(triangle, Signal([[0] * 3] * 3), spath)
    assert main(["verify", "--in", hpath, "--signal", str(spath)]) == 0
    assert capsys.readouterr().out.strip() == "pass"


def test_verify_command_locates_corruption(tmp_path, triangle, skew_map, skew_signal, capsys):
    hpath = write(tmp_path / "tri.json", triangle)
    doc = {
        "vertices": ["u", "v", "w"],
        "ell": 3,
        "values": [["0", "0", "2"], ["1", "17", "0"], ["0", "0", "2"]],
    }
    spath = tmp_path / "sig.json"
    spath.write_text(json.dumps(doc))
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps([["1", "-2", "1"]]))
    assert main(["verify", "--in", hpath, "--signal", str(spath), "--map", str(mpath)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fail:")
    assert "edge=(u,v,w)" in out and "arrangement=" in out and "map_row=0" in out


def test_verify_command_vertex_mismatch(tmp_path, triangle, fan_five, capsys):
    hpath = write(tmp_path / "tri.json", triangle)
    spath = tmp_path / "sig.json"
    save_signal(fan_five, Signal([[0] * 5] * 3), spath)
    assert main(["verify", "--in", hpath, "--signal", str(spath)]) == 2
    assert "vertices" in capsys.readouterr().err


def test_verify_command_arity_mismatch(tmp_path, triangle, capsys):
    """A signal file of another arity on the same vertices is named by its
    ``ell`` and both values, not as a vertex mismatch."""
    hpath = write(tmp_path / "tri.json", triangle)
    spath = tmp_path / "sig.json"
    doc = {"vertices": ["u", "v", "w"], "ell": 4, "values": [["0"] * 3] * 4}
    spath.write_text(json.dumps(doc))
    assert main(["verify", "--in", hpath, "--signal", str(spath)]) == 2
    assert capsys.readouterr().err == "error: signal file has ell 4, the hypergraph has ell 3\n"


def test_export_dot_triangle(tmp_path, triangle, capsys):
    path = write(tmp_path / "tri.json", triangle)
    assert main(["export-dot", "--in", path]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph incidence {")
    assert dot.count("shape=circle") == 3
    assert dot.count("shape=box") == 1
    assert dot.count(" -- ") == 3


def test_export_dot_multiplicity_label():
    h = Hypergraph.build(3, ["u", "v"], [(0, 0, 1)])
    dot = to_dot(h)
    assert 'v0 -- e0 [label="2"];' in dot
    assert "v1 -- e0;" in dot


def test_export_dot_grammar_shape(fan_five):
    dot = to_dot(fan_five)
    lines = dot.strip().splitlines()
    assert lines[0] == "graph incidence {" and lines[-1] == "}"
    node = re.compile(r'^  (v|e)\d+ \[shape=(circle|box), label=".*"\];$')
    arc = re.compile(r'^  v\d+ -- e\d+( \[label="\d+"\])?;$')
    for line in lines[1:-1]:
        assert node.match(line) or arc.match(line), line


def test_exit_code_on_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["frame", "--in", str(path)]) == 2
    assert main(["signals", "--in", str(tmp_path / "missing.json")]) == 2


UNREADABLE_JSON = {
    "invalid-utf8": b'{"ell": 3, "vertices": ["\xff"], "edges": []}',
    "too-many-digits": b"[" + b"9" * 5000 + b"]",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", ["frame", "signals", "verify"])
@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_unreadable_json_exits_2(tmp_path, fan_path, command, content, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "frame": ["frame", "--in", str(bad)],
        "signals": ["signals", "--in", fan_path, "--map", str(bad)],
        "verify": ["verify", "--in", fan_path, "--signal", str(bad)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}: ")


def test_frame_out_keeps_old_file_when_replace_fails(tmp_path, fan_path, monkeypatch, capsys):
    out = tmp_path / "framed.json"
    out.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError(errno.EIO, "injected failure")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["frame", "--in", fan_path, "--out", str(out)]) == 2
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fan.json", "framed.json"]


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_frame_out_keeps_old_file_when_classes_target_fails(tmp_path, fan_path, target, capsys):
    """Both files are staged before either replaces its target: a classes
    file that cannot be created, in a missing directory or over an
    existing directory, leaves the old --out file as it was."""
    out = tmp_path / "framed.json"
    out.write_bytes(b"old\n")
    names = ["fan.json", "framed.json"]
    if target == "directory":
        classes = tmp_path / "c"
        classes.mkdir()
        names.insert(0, "c")
        message = f"[Errno {errno.EISDIR}] Is a directory: '{classes}'"
    else:
        classes = tmp_path / "missing" / "c.json"
        message = f"[Errno {errno.ENOENT}] No such file or directory: '{classes}'"
    argv = ["frame", "--in", fan_path, "--out", str(out), "--classes", str(classes)]
    assert main(argv) == 2
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == names
    assert capsys.readouterr().err == f"error: {message}\n"


def test_frame_out_second_replace_failure_leaves_frame_new_and_classes_old(
    tmp_path, fan_path, fan_five, monkeypatch, capsys
):
    """The two renames are not atomic as a pair: a failure between them
    leaves the frame new, the classes file old and no temporary file."""
    out, classes = tmp_path / "framed.json", tmp_path / "c.json"
    out.write_bytes(b"old frame\n")
    classes.write_bytes(b"old classes\n")
    real, calls = os.replace, []

    def fail_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EIO, "injected failure", str(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", fail_second)
    argv = ["frame", "--in", fan_path, "--out", str(out), "--classes", str(classes)]
    assert main(argv) == 2
    assert calls == [out, classes]
    assert out.read_text() == dumps_hypergraph(frame(fan_five).frame)
    assert classes.read_bytes() == b"old classes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "fan.json", "framed.json"]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_frame_rejects_out_and_classes_naming_one_file(tmp_path, spelling, capsys):
    """--out and --classes resolving to one file would leave only the
    classes document there; argv is rejected before the input is read."""
    target = tmp_path / "p.json"
    target.write_bytes(b"old\n")
    classes = target if spelling == "same" else tmp_path / "sub" / ".." / "p.json"
    missing = tmp_path / "missing.json"
    argv = ["frame", "--in", str(missing), "--out", str(target), "--classes", str(classes)]
    assert main(argv) == 2
    assert target.read_bytes() == b"old\n"
    assert capsys.readouterr().err == (
        f"error: --out {target} and --classes {classes} name the same file\n"
    )


def test_out_to_a_pipe_writes_through(tmp_path, fan_path, fan_five, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["generate", "fan", "--n", "1", "--out", str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == dumps_hypergraph(fan(1)).encode()
        # the basis file's text comes in chunks, written through in turn
        assert main(["signals", "--in", fan_path, "--out", str(fifo)]) == 0
        docs = [signal_to_json(fan_five, s) for s in signal_space(fan_five, universal_map(3))]
        assert os.read(reader, 1 << 16) == (json.dumps(docs, indent=2) + "\n").encode()
    finally:
        os.close(reader)


def test_write_into_missing_directory_names_target(tmp_path, capsys):
    out = tmp_path / "missing" / "fan.json"
    assert main(["generate", "fan", "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOENT}] No such file or directory: '{out}'\n"
    )


def test_roundtrip_via_cli_files(tmp_path, fan_five):
    path = tmp_path / "h.json"
    save_hypergraph(fan_five, path)
    assert load_hypergraph(path) == fan_five
    assert dumps_hypergraph(load_hypergraph(path)) == path.read_text()


def test_main_keeps_no_state_between_calls(tmp_path, fan_path, capsys):
    # the parser is built once and reused, so no call may leave anything
    # behind for the next: every argv gives the same result in any order
    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    argvs = [
        ("frame", "--in", fan_path),
        ("frame", "--out"),
        ("signals", "--in", str(tmp_path / "missing.json")),
        ("signals", "--in", fan_path, "--map", "C"),
    ]
    first = {argv: run(list(argv)) for argv in argvs}
    second = {argv: run(list(argv)) for argv in reversed(argvs)}
    assert first == second
    assert [first[argv][0] for argv in argvs] == [0, 2, 2, 0]
    assert first[argvs[1]][2].startswith("usage: hypersig frame")


def test_main_runs_the_handler_on_the_module(monkeypatch):
    # the parser is cached, so a handler bound into it at the first build
    # would hide one replaced on the module later
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args.kind) or 7)
    assert main(["generate", "fan", "--n", "3"]) == 7
    assert calls == ["fan"]


# Fuzzed input documents: each starts as a valid hypergraph, signal or map
# and has up to three nested values replaced by wrong types, bools, floats,
# nested junk, unknown labels or sizes that break the arity.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)
REPLACEMENTS = JUNK | st.sampled_from(["zz", "a", "1/2", "-1/0", "1e3", [], ["a", "b"], ["a"] * 5])
RATIONALS = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "0"])


def _corrupt(draw, doc):
    """A copy of ``doc`` with one nested value, or the whole of it,
    replaced; ``doc`` itself is left as it is."""
    if isinstance(doc, (list, dict)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        doc = doc.copy()
        doc[key] = _corrupt(draw, doc[key])
        return doc
    return draw(REPLACEMENTS)


@st.composite
def cli_documents(draw):
    ell = draw(st.integers(3, 4))
    vertices = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    edge = st.lists(st.sampled_from(vertices), min_size=ell, max_size=ell)
    values = st.lists(RATIONALS, min_size=len(vertices), max_size=len(vertices))
    rows = st.lists(RATIONALS, min_size=ell, max_size=ell)
    docs = {
        "h": {"ell": ell, "vertices": vertices, "edges": draw(st.lists(edge, max_size=5))},
        "s": {
            "vertices": vertices,
            "ell": ell,
            "values": draw(st.lists(values, min_size=ell, max_size=ell)),
        },
        "t": draw(st.lists(rows, min_size=1, max_size=2)),
    }
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from("hst"))
        docs[name] = _corrupt(draw, docs[name])
    return docs


@given(cli_documents(), st.sampled_from(["U", "C", "FILE"]))
@settings(max_examples=100, deadline=None)
def test_fuzzed_documents_exit_cleanly(docs, verify_map):
    """Every command on fuzzed files exits 0, 1 or 2, never with a
    traceback, and exit 2 names the problem on an ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as f:
                json.dump(doc, f)
        h, t = paths["h"], paths["t"]
        argvs = [["signals", "--in", h, "--map", m] for m in ("U", "C", t)]
        argvs += [[cmd, "--in", h] for cmd in ("frame", "components", "export-dot")]
        verify_map = t if verify_map == "FILE" else verify_map
        argvs.append(["verify", "--in", h, "--signal", paths["s"], "--map", verify_map])
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, docs)
            if code == 2:
                assert re.search(r"^error: ", err.getvalue(), re.M), (argv, docs, err.getvalue())


# Generated argv: each command's own flags, mostly, and unknown ones, in
# any order, repeated or missing their value, with bad numbers, and paths
# to valid files, a disconnected hypergraph, a file that is not JSON,
# missing paths and directories. Numbers stay small, so every run takes
# milliseconds: sweep always gets a small --sizes and --runs, which later
# repeats may override only with small values. No FIFO: opening one
# blocks until a peer opens it.
PATHS = ["h.json", "two.json", "s.json", "t.json", "bad.json", "missing.json", "dir", "missing/x.json"]
NUMBERS = ["3", "-1", "0", "1", "2", "7", "x", "1/2", ""]
SIZES = ["5", "3,7", "0", "-1", "abc", "", "1/0", "5,,6"]
RUNS = ["1", "3", "-1", "0", "x"]
FLAG_VALUES = {
    "--in": ["h.json", *PATHS],
    "--out": ["out.json", *PATHS],
    "--classes": ["c.json", *PATHS],
    "--signal": ["s.json", *PATHS],
    "--map": ["U", "C", *PATHS],
    "--n": NUMBERS,
    "--m": NUMBERS,
    "--ell": NUMBERS,
    "--seed": NUMBERS,
    "--runs": RUNS,
    "--sizes": SIZES,
    "--densities": ["1", "2.5", "2/3", "0", "-1", "1e400", "abc", "1/0"],
    "--density-mode": ["avg-degree", "edges-per-vertex", "bogus"],
    "--bogus": NUMBERS,
    "-h": PATHS,
}
# per command: its flags, the required ones first
COMMAND_FLAGS = {
    "signals": (1, ["--in", "--map", "--out"]),
    "frame": (1, ["--in", "--out", "--classes"]),
    "components": (1, ["--in"]),
    "generate": (1, ["--n", "--m", "--ell", "--seed", "--out"]),
    "sweep": (2, ["--sizes", "--runs", "--densities", "--seed", "--ell", "--density-mode", "--out"]),
    "verify": (2, ["--in", "--signal", "--map"]),
    "export-dot": (1, ["--in", "--out"]),
    "bogus": (0, ["--in"]),
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, flags = COMMAND_FLAGS[command]
    argv = [command]
    if command == "generate" and draw(st.integers(0, 5)):
        argv.append(draw(st.sampled_from(["random", "fan", "mountain", "bogus"])))
    if command == "sweep" or draw(st.integers(0, 5)):  # sweep's defaults run for seconds
        for flag in flags[:required]:  # a valid value first in each pool, half the time
            values = FLAG_VALUES[flag]
            argv += [flag, values[0] if draw(st.booleans()) else draw(st.sampled_from(values))]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(flags if draw(st.integers(0, 4)) else sorted(FLAG_VALUES)))
        argv.append(flag)
        if draw(st.integers(0, 5)):  # mostly with its value, sometimes without
            argv.append(draw(st.sampled_from(FLAG_VALUES[flag])))
    return argv


def run_in(directory, argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in ``directory``,
    with argparse's ``SystemExit`` caught."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def write_argv_files(directory):
    """The files that the paths of generated argv name."""
    h = fan(2)
    save_hypergraph(h, os.path.join(directory, "h.json"))
    save_hypergraph(
        Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)]),
        os.path.join(directory, "two.json"),
    )
    save_signal(h, Signal([[0] * h.n_vertices] * h.ell), os.path.join(directory, "s.json"))
    with open(os.path.join(directory, "t.json"), "w", encoding="utf-8") as f:
        f.write('[["1", "-2", "1"]]')
    with open(os.path.join(directory, "bad.json"), "w", encoding="utf-8") as f:
        f.write("{not json")
    os.mkdir(os.path.join(directory, "dir"))


@given(cli_argvs())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_exits_cleanly(argv):
    """Every generated argv exits 0, 1 or 2, never with a traceback, and
    exit 2 names the problem on an ``error:`` line (argparse prefixes it
    with the program name)."""
    with tempfile.TemporaryDirectory() as tmp:
        write_argv_files(tmp)
        code, _, err = run_in(tmp, argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert re.search(r"^(hypersig[\w -]*: )?error: ", err, re.M), (argv, err)


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m hypersig.cli`` in a fresh process, with the package's
    ``src`` directory as its ``PYTHONPATH``."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "hypersig.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_process_entry_point_exits_with_the_command_code(tmp_path, fan_path, fan_five):
    """The process entry point, ``entry()``, exits with ``main``'s code: 2
    and an ``error:`` line for a missing input file, 0 and ``pass`` for an
    admissible signal, 1 for one that is not."""
    missing = run_module("frame", "--in", str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: ")
    admissible, failing = tmp_path / "admissible.json", tmp_path / "failing.json"
    save_signal(fan_five, Signal([[1] * 5, [-1] * 5, [0] * 5]), admissible)
    save_signal(fan_five, Signal([[1, 0, 0, 0, 0], [0] * 5, [0] * 5]), failing)
    passed = run_module("verify", "--in", fan_path, "--signal", str(admissible))
    assert (passed.returncode, passed.stdout, passed.stderr) == (0, "pass\n", "")
    failed = run_module("verify", "--in", fan_path, "--signal", str(failing))
    assert failed.returncode == 1
    assert failed.stdout.startswith("fail: ")
