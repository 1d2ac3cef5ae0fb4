"""The mutation catalogue: small faults in the library that the suite must
catch, each with the tests that catch it.

Run ``python tests/mutants.py`` from anywhere; it takes no flags and
needs nothing beyond the standard library and the suite's own pytest and
hypothesis. It copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory (``tests/test_cli.py`` finds ``src/`` next to its
own directory, so the copy must hold both) and first runs every listed
test on the unchanged copy, which must pass. Then, for each entry, on a
fresh copy, it replaces the entry's text, found exactly once in its file,
and runs the entry's tests in a subprocess with a fixed hypothesis seed.
A mutant is killed when a test fails or the run outlives ``TIMEOUT_S``;
it survives when every test passes. A fault that makes a loop run
forever, such as a wrong sign in a GF(3) update, is named by a test
with a wall-clock bound of its own, so no entry should need the
timeout. The runner reports each mutant, the
first test that failed or the timeout, and exits 1 if any survives.

A survivor means the suite no longer sees that fault: a test was
weakened, or the code moved and the entry no longer says what it meant.
Mend the test, or rewrite the entry against the new code.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    text: str  # occurs exactly once in the file
    replacement: str
    kills: tuple[str, ...]  # pytest node ids


SIGNALS, HYPERGRAPH = "src/hypersig/signals.py", "src/hypersig/hypergraph.py"
FRAMES, LINALG, CLI = "src/hypersig/frames.py", "src/hypersig/linalg.py", "src/hypersig/cli.py"
EXPERIMENTS = "src/hypersig/experiments.py"
ROUTE = "tests/test_frames.py::test_fusion_route_matches_the_oracle"
NAMED = "tests/test_public_constructors.py::test_a_sequence_of_the_wrong_type_is_named"
ONE_SHOT = "tests/test_public_constructors.py::test_a_sequence_entry_reads_a_one_shot_iterator_once"
NON_INT_ID = (
    "tests/test_hypergraph.py::test_direct_construction_with_a_non_int_id_is_a_domain_error"
)
GOLDEN = "tests/test_golden_cli.py::test_cli_output_matches_golden"
PARTITION = "tests/test_hypergraph.py::test_partition_names_a_class_map_it_refuses"
INTEGER = "tests/test_public_constructors.py::test_a_count_arity_or_seed_that_is_no_int_is_named"
HANG = "tests/test_frames.py::test_frame_returns_within_a_few_seconds"
SAVE_SIGNAL = "tests/test_json_render.py::test_save_signal_writes_the_reference_document"
CERTIFIED_FUSION = "tests/test_frames.py::test_certified_fusion_matches_edge_sum_nullspace"
COUNT_DIFFERENTIAL = "tests/test_frames.py::test_the_edge_count_certifies_exactly_what_the_peel_does"
SAMPLER = "tests/test_experiments.py::test_sampler_draws_exactly_as_random_sample"

MUTANTS = (
    # the peel of the edge-sum system
    Mutant(
        "peel a vertex held by two rows",
        SIGNALS,
        "    leaves = [x for x, k in enumerate(held) if k == 1]\n"
        "    repeated = []  # leaves that repeat in their row, taken when no other is left\n"
        "    left = [True] * len(edges)\n"
        "    order = []\n"
        "    while leaves or repeated:\n"
        "        late = not leaves\n"
        "        x = (leaves or repeated).pop()\n"
        "        if held[x] != 1:",
        "    leaves = [x for x, k in enumerate(held) if k in (1, 2)]\n"
        "    repeated = []  # leaves that repeat in their row, taken when no other is left\n"
        "    left = [True] * len(edges)\n"
        "    order = []\n"
        "    while leaves or repeated:\n"
        "        late = not leaves\n"
        "        x = (leaves or repeated).pop()\n"
        "        if held[x] not in (1, 2):",
        (f"{ROUTE}[draw-U]",),
    ),
    Mutant(
        "peel without the count decrement",
        SIGNALS,
        "            held[y] -= 1\n",
        "",
        (HANG,),
    ),
    Mutant(
        "peeled row also left in the core",
        SIGNALS,
        "        left[i] = False\n",
        "",
        (f"{ROUTE}[draw-U]",),
    ),
    Mutant(
        "peel without the once-in-its-row preference",
        SIGNALS,
        "if not late and len(rows[i]) < ell and edges[i].count(x) > 1:",
        "if False:",
        ("tests/test_frames.py::test_peeled_draw_work_stays_within_its_guard",),
    ),
    # the candidate modulo 3 and the certificate
    Mutant(
        "count of 3 kept in a bitsliced row",
        SIGNALS,
        "            elif two & b:\n                two ^= b\n",
        "            elif two & b:\n                pass\n",
        (f"{ROUTE}[candidate-U]",),
    ),
    Mutant(
        "wrong sign in the GF(3) elimination",
        LINALG,
        "                p1, p2 = p\n"
        "            else:  # add p: subtract its negation\n"
        "                p2, p1 = p\n",
        "                p2, p1 = p\n"
        "            else:  # add p: subtract its negation\n"
        "                p1, p2 = p\n",
        (HANG,),
    ),
    Mutant(
        "wrong sign in the GF(3) back-substitution",
        LINALG,
        "                b1, b2 = ones[i], twos[i]\n",
        "                b2, b1 = ones[i], twos[i]\n",
        (f"{ROUTE}[candidate-U]",),
    ),
    Mutant(
        "no m >= n gate",
        SIGNALS,
        "found = _frame_fusion(h) if h.n_edges >= h.n_vertices else None",
        "found = _frame_fusion(h)",
        (f"{ROUTE}[frame-U]",),
    ),
    Mutant(
        "no nullity check",
        SIGNALS,
        "    if g.n_vertices + 1 - len(order) - len(echelon) == nullity:\n",
        "    if True:\n",
        (f"{ROUTE}[candidate-U]",),
    ),
    Mutant(
        "nullity off by one",
        SIGNALS,
        "if g.n_vertices + 1 - len(order) - len(echelon) == nullity:",
        "if g.n_vertices - len(order) - len(echelon) == nullity:",
        (CERTIFIED_FUSION, COUNT_DIFFERENTIAL),
    ),
    Mutant(
        "the frame's edge count compared with >=",
        SIGNALS,
        "    if g.n_vertices + 1 - g.n_edges == nullity:\n",
        "    if g.n_vertices + 1 - g.n_edges >= nullity:\n",
        ("tests/test_frames.py::test_certificate_runs_on_the_frame[fan5]",),
    ),
    Mutant(
        "the input's edge count in place of the frame's",
        SIGNALS,
        "    if g.n_vertices + 1 - g.n_edges == nullity:\n",
        "    if g.n_vertices + 1 - h.n_edges == nullity:\n",
        ("tests/test_frames.py::test_certifying_an_empty_core_frame_eliminates_no_frame",),
    ),
    Mutant(
        "candidate accepted without the certificate",
        SIGNALS,
        "found = None if p.is_discrete() else _certified_frame(h, p, n + 1 - rank)",
        "found = None if p.is_discrete() else (quotient(h, p), _edge_sum_peel(quotient(h, p)))",
        (f"{ROUTE}[candidate-U]",),
    ),
    Mutant(
        "discrete candidate not short-cut",
        SIGNALS,
        "found = None if p.is_discrete() else _certified_frame(h, p, n + 1 - rank)",
        "found = _certified_frame(h, p, n + 1 - rank)",
        (f"{ROUTE}[candidate-U]",),
    ),
    Mutant(
        "no re-verification of the fusion signal",
        SIGNALS,
        "    _check_basis(h, maps, [values])\n",
        "",
        (f"{ROUTE}[frame-U]",),
    ),
    # the draw on the peeled system
    Mutant(
        "C dropped from a peeled row's sum",
        SIGNALS,
        "s = c + sum(map(f.__getitem__, e))",
        "s = sum(map(f.__getitem__, e))",
        (f"{ROUTE}[draw-U]",),
    ),
    Mutant(
        "wrong private vertex solved",
        SIGNALS,
        "        f[x] = -s // k\n",
        "        f[e[0]] = -s // k\n",
        (f"{ROUTE}[draw-U]",),
    ),
    # signal spaces and their documents
    Mutant(
        "_space reads a table with its axes reversed",
        SIGNALS,
        "for row in table]))",
        "for row in table[::-1]]))",
        ("tests/test_signals.py::test_signal_space_matches_full_assembly_at_benchmark_sizes[3-30-24]",),
    ),
    Mutant(
        "_check_basis never raises",
        SIGNALS,
        "        if witness is not None:\n",
        "        if False:\n",
        ("tests/test_frames.py::test_lift_that_fails_reverification_is_an_internal_error",),
    ),
    Mutant(
        "_basis_chunks renders a table's columns as rows",
        SIGNALS,
        "for row in table)",
        "for row in zip(*table))",
        ("tests/test_cli.py::test_signals_command_writes_verified_basis",),
    ),
    Mutant(
        "vertex labels of a signal document at the wrong indent",
        SIGNALS,
        'labels = ",\\n      ".join(map(_encode, h.vertices))',
        'labels = ",\\n     ".join(map(_encode, h.vertices))',
        (f"{GOLDEN}[signals-U]",),
    ),
    Mutant(
        "save_signal keeps the array nesting",
        SIGNALS,
        'text[4:-3].replace("\\n  ", "\\n") + "\\n"',
        "text",
        (SAVE_SIGNAL,),
    ),
    Mutant(
        "labels encoded without ASCII escapes",
        HYPERGRAPH,
        "_encode = json.encoder.encode_basestring_ascii",
        "_encode = json.encoder.encode_basestring",
        (SAVE_SIGNAL,),
    ),
    Mutant(
        "no signal shape rule",
        SIGNALS,
        "    if s.ell != h.ell or s.n_vertices != h.n_vertices:\n",
        "    if False:\n",
        ("tests/test_signals.py::test_save_signal_shape_message[long]",),
    ),
    Mutant(
        "Signal accepts a ragged table",
        SIGNALS,
        "        if out and len(row) != len(out[0]):\n",
        "        if False:\n",
        ("tests/test_signals.py::test_signal_rejects_a_ragged_table[lists]",),
    ),
    Mutant(
        "a ragged map row",
        SIGNALS,
        "        if out and len(row) != len(out[0]):\n",
        '        if table == "signal" and out and len(row) != len(out[0]):\n',
        ("tests/test_signals.py::test_linear_map_shape_messages[short-row]",),
    ),
    Mutant(
        "a map with no rows or an empty row",
        SIGNALS,
        "    if nonempty and not (out and out[0]):\n",
        "    if False:\n",
        ("tests/test_signals.py::test_linear_map_shape_messages[no-rows]",),
    ),
    # hypergraphs
    Mutant(
        "the id type pass dropped",
        HYPERGRAPH,
        "                and set(map(type, chain.from_iterable(cols))) <= {int}\n",
        "",
        (f"{NON_INT_ID}[(0, 1, 2.0)]",),
    ),
    Mutant(
        "id range read off the first column",
        HYPERGRAPH,
        "max(cols[-1]) < n",
        "max(cols[0]) < n",
        ("tests/test_hypergraph.py::test_canonicalize_edge_errors",),
    ),
    Mutant(
        "the edge loop lets bools through",
        HYPERGRAPH,
        "odd = [v for v in e if type(v) is not int]",
        "odd = [v for v in e if not isinstance(v, int)]",
        (f"{NON_INT_ID}[(0, 1, True)]",),
    ),
    Mutant(
        "build does not catch TypeError",
        HYPERGRAPH,
        "        except TypeError as exc:\n            raise DomainError(f\"edges must be",
        "        except ValueError as exc:\n            raise DomainError(f\"edges must be",
        (
            "tests/test_hypergraph.py::"
            "test_build_and_from_labels_refuse_what_they_cannot_sort_or_hash",
        ),
    ),
    Mutant(
        "from_labels always builds",
        HYPERGRAPH,
        "            with suppress(DomainError):\n"
        "                return cls(ell, labels, id_edges)\n",
        "",
        ("tests/test_hypergraph.py::test_a_canonical_document_is_read_without_a_build",),
    ),
    Mutant(
        "from_labels does not fall back to build",
        HYPERGRAPH,
        "            return cls.build(ell, labels, id_edges)\n        try:",
        "            return cls(ell, labels, id_edges)\n        try:",
        ("tests/test_hypergraph.py::test_non_canonical_documents_build_once",),
    ),
    Mutant(
        "union-find hangs a root the wrong way",
        HYPERGRAPH,
        "                parent[v] = r\n",
        "                parent[r] = v\n",
        ("tests/test_hypergraph.py::test_component_roots_match_the_reference_roots",),
    ),
    # frame documents and the process entry point
    Mutant(
        "frame nested at the wrong pad",
        FRAMES,
        'frame_text[:-1].replace("\\n", "\\n  ")',
        'frame_text[:-1].replace("\\n", "\\n   ")',
        ("tests/test_json_render.py::test_frame_documents_match_the_reference_documents",),
    ),
    Mutant(
        "frame label taken from the class index",
        FRAMES,
        "frame_enc = [enc[block[0]] for block in classes]",
        "frame_enc = [enc[i] for i, _ in enumerate(classes)]",
        ("tests/test_json_render.py::test_frame_documents_match_the_reference_documents",),
    ),
    Mutant(
        "entry() drops main's exit code",
        CLI,
        "    sys.exit(main())\n",
        "    main()\n",
        ("tests/test_cli.py::test_process_entry_point_exits_with_the_command_code",),
    ),
    # the sequence rule of the public entries
    Mutant(
        "the sequence rule lets a set through",
        HYPERGRAPH,
        "(str, bytes, Set, Mapping)",
        "(str, bytes, Mapping)",
        (f"{NAMED}[from-labels-vertices-set]",),
    ),
    Mutant(
        "the sequence rule lets a mapping through",
        HYPERGRAPH,
        "(str, bytes, Set, Mapping)",
        "(str, bytes, Set)",
        (f"{NAMED}[map-rows-dict]",),
    ),
    Mutant(
        "the sequence rule lets a string through",
        HYPERGRAPH,
        "(str, bytes, Set, Mapping)",
        "(bytes, Set, Mapping)",
        (f"{NAMED}[build-vertices-str]",),
    ),
    Mutant(
        "from_labels indexes the caller's vertices, not the tuple it read",
        HYPERGRAPH,
        "enumerate(labels)}",
        "enumerate(vertices)}",
        (f"{ONE_SHOT}[from-labels-vertices]",),
    ),
    Mutant(
        "the fast path of from_labels takes an edge of any type",
        HYPERGRAPH,
        " and set(map(type, edges)) <= {list, tuple}",
        "",
        (f"{NAMED}[from-labels-edge-str]",),
    ),
    Mutant(
        "no guard on from_labels' edges",
        HYPERGRAPH,
        "        try:\n            edges = iter(edges)\n        except TypeError:\n",
        "        if False:\n",
        (f"{NAMED}[from-labels-edges]",),
    ),
    Mutant(
        "attach_simplex hashes a new label before its type is checked",
        FRAMES,
        "    vertices = _string_labels(h.vertices + labels)\n",
        "    vertices = h.vertices + labels\n",
        (f"{NAMED}[attach-simplex-unhashable-label]",),
    ),
    # the class map of a partition
    Mutant(
        "a class map with a gap",
        HYPERGRAPH,
        "        if ids != list(range(len(ids))):\n",
        "        if ids != sorted(ids):\n",
        (f"{PARTITION}[gap]",),
    ),
    Mutant(
        "a bool class id",
        HYPERGRAPH,
        "        if not set(map(type, c)) <= {int}:\n",
        "        if not all(map(isinstance, c, repeat(int))):\n",
        (f"{PARTITION}[bool]",),
    ),
    # the integer rule of the public entries
    Mutant(
        "the integer rule lets an int subclass through",
        HYPERGRAPH,
        "    if type(value) is not int:\n",
        "    if not isinstance(value, int):\n",
        (f"{INTEGER}[fan-n-True]",),
    ),
    Mutant(
        "the integer rule ignores its bound",
        HYPERGRAPH,
        "    if least is not None and value < least:\n",
        "    if False:\n",
        ("tests/test_experiments.py::test_random_hypergraph_rejects_arity_two",),
    ),
    Mutant(
        "random_hypergraph takes any seed",
        EXPERIMENTS,
        '    _integer("seed", seed)\n',
        "",
        ("tests/test_experiments.py::test_random_hypergraph_refuses_a_seed_that_is_no_int[float]",),
    ),
    # the coverage marked while drawing
    Mutant(
        "one mark of an ell = 3 draw dropped",
        EXPERIMENTS,
        "            hit[a] = hit[b] = hit[c] = 1\n",
        "            hit[a] = hit[b] = 1\n",
        (f"{SAMPLER}[3]",),
    ),
    Mutant(
        "coverage off by one",
        EXPERIMENTS,
        "    return edges, 0 not in hit\n",
        "    return edges, hit.count(0) <= 1\n",
        (f"{SAMPLER}[3]",),
    ),
    # the sweep configuration
    Mutant(
        "a sweep field with no items passes",
        EXPERIMENTS,
        "            if not getattr(self, field):\n",
        "            if False:\n",
        ("tests/test_cli.py::test_sweep_rejects_bad_lists[--sizes-,-1]",),
    ),
    Mutant(
        "a sweep takes an arity below 3",
        EXPERIMENTS,
        '        _integer("ell", self.ell, MIN_ARITY)\n',
        '        _integer("ell", self.ell)\n',
        ("tests/test_cli.py::test_sweep_refuses_an_arity_below_three[avg-degree]",),
    ),
    Mutant(
        "an int density kept as an int",
        EXPERIMENTS,
        '        object.__setattr__(self, "densities", tuple(map(Fraction, self.densities)))\n',
        "",
        ("tests/test_experiments.py::test_int_and_fraction_densities_give_the_same_sweep",),
    ),
)


def _copy(dest: Path) -> None:
    dest.mkdir()
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, ids: list[str] | tuple[str, ...]) -> tuple[str, str]:
    """Run ``ids`` under pytest in ``cwd``, stopping at the first failure:
    ``("passed", "")``, ``("failed", first failing id)``, ``("timeout",
    "")``, or ``("error", output)`` when pytest could not run them."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *ids]
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    if proc.returncode == 0:
        return "passed", ""
    failed = [
        line.split(" ", 1)[1].split(" - ")[0]
        for line in out.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if proc.returncode in (1, 2) and failed:
        return "failed", failed[0]
    return "error", out


def _apply(root: Path, m: Mutant) -> None:
    path = root / m.path
    source = path.read_text(encoding="utf-8")
    if source.count(m.text) != 1:
        raise SystemExit(f"{m.name}: its text occurs {source.count(m.text)} times in {m.path}")
    path.write_text(source.replace(m.text, m.replacement), encoding="utf-8")


def main() -> int:
    ids = list(dict.fromkeys(k for m in MUTANTS for k in m.kills))
    with tempfile.TemporaryDirectory(prefix="hypersig-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        status, detail = _pytest(base, ids)
        if status != "passed":
            print(f"the unchanged copy does not pass the listed tests: {status} {detail}")
            return 1
        counts = {"killed": 0, "timeout": 0, "survived": 0}
        for i, m in enumerate(MUTANTS):
            work = Path(tmp) / f"mutant-{i}"
            _copy(work)
            _apply(work, m)
            status, detail = _pytest(work, m.kills)
            shutil.rmtree(work)
            if status == "error":
                print(f"error     {m.name}: pytest could not run its tests\n{detail}")
                return 1
            outcome = {"failed": "killed", "timeout": "timeout", "passed": "survived"}[status]
            counts[outcome] += 1
            by = {"failed": f"by {detail}", "timeout": f"after {TIMEOUT_S} s", "passed": "SURVIVED"}
            print(f"{outcome:<9} {m.name}: {by[status]}", flush=True)
    print(", ".join(f"{v} {k}" for k, v in counts.items()) + f" of {len(MUTANTS)} mutants")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
