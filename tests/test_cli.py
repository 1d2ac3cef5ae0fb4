import errno
import json
import os
import re

import pytest

from hypersig import (
    Signal,
    dumps_hypergraph,
    fan,
    load_hypergraph,
    mountain_range,
    save_hypergraph,
    save_signal,
    verify_signal,
    universal_map,
    signal_from_json,
    Hypergraph,
)
from hypersig import cli
from hypersig.cli import main, to_dot


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


def test_signals_command_arity_mismatch(tmp_path, fan_path, capsys):
    map_path = tmp_path / "t.json"
    map_path.write_text(json.dumps([["1", "1", "1", "1"]]))
    assert main(["signals", "--in", fan_path, "--map", str(map_path)]) == 1


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
    save_signal(triangle, Signal.zero(3, 3), spath)
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
    save_signal(fan_five, Signal.zero(3, 5), spath)
    assert main(["verify", "--in", hpath, "--signal", str(spath)]) == 2


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


def test_frame_out_keeps_old_file_when_replace_fails(tmp_path, fan_path, monkeypatch, capsys):
    out = tmp_path / "framed.json"
    out.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError(errno.EIO, "injected failure")

    monkeypatch.setattr(os, "replace", fail)
    assert main(["frame", "--in", fan_path, "--out", str(out)]) == 2
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fan.json", "framed.json"]


def test_out_to_a_pipe_writes_through(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["generate", "fan", "--n", "1", "--out", str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == dumps_hypergraph(fan(1)).encode()
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
