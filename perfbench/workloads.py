"""Seeded workloads of the hypersig benchmark.

A workload turns ``--seed`` into a fixed, ordered list of items. Its
``setup`` writes the items' input files and runs one warm-up item; its
``run_item`` drives one item through the program in-process and returns
the latency and a *record*: the item's outputs as named byte strings.
Records are what the golden files store (as SHA-256 digests) and what
the exact self-checks in ``check_item`` read. The program only ever
sees the generated inputs, never the seed.

The program is reached through module attributes (``cli.main``,
``experiments.random_hypergraph``) looked up at call time, so the
tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain, permutations, zip_longest
from math import lcm, sqrt
from pathlib import Path
from time import perf_counter


def derive_seed(*parts) -> int:
    """64-bit seed from printable parts; independent of the program's own
    seeding so the inputs do not move when the program changes."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def call_cli(cli, argv: list[str], clock=perf_counter) -> tuple[float, int, str]:
    """Run ``hypersig <argv>`` in-process; return seconds, exit code and
    captured stdout. Stderr is captured and dropped: it holds warnings,
    which are not part of the compared output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = clock() - t0
    return seconds, code, out.getvalue()


def interleave(groups: list[list]) -> list:
    """Round-robin merge of item groups. Items of one kind are spread over
    the whole pass, so a slow phase of a shared machine hits every kind
    alike instead of one contiguous block (which would move the median)."""
    return [x for x in chain.from_iterable(zip_longest(*groups)) if x is not None]


def _parse_json(data: bytes, what: str, problems: list[str]):
    try:
        return json.loads(data)
    except ValueError:
        problems.append(f"{what} is not valid JSON")
        return None


class Workload:
    """Common shape: ``items`` is a list of ``(key, spec)`` pairs, keys
    unique and stable, so that golden records can be looked up by key."""

    name = ""

    def __init__(self, hs, seed: int, workdir: Path):
        self.hs = hs
        self.seed = seed
        self.workdir = workdir
        self.items: list[tuple[str, object]] = []
        self.clock = perf_counter  # what item latencies are measured with

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.write_inputs()
        self.run_item(self.warmup_spec())

    def warmup_spec(self):
        """A small item, run once per set-up."""
        return self.items[0][1]

    def write_inputs(self) -> None:
        pass

    def run_item(self, spec) -> tuple[float, dict[str, bytes]]:
        raise NotImplementedError

    def check_item(self, spec, record: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def pass_record(self, records: list[dict[str, bytes]]) -> dict[str, bytes] | None:
        """Output that depends on a whole pass (the sweep's CSV), or None."""
        return None

    def check_pass(self, record: dict[str, bytes], records) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# sweep: the criterion-10 reduction sweep, one instance per item
# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"

    def __init__(self, hs, seed, workdir, n=50, runs=10, densities=None):
        super().__init__(hs, seed, workdir)
        self.n = n
        self.densities = densities or tuple(Fraction(k, 10) for k in range(23, 31))
        self.items = interleave(
            [[(f"d={d}/run={run}", (d, run)) for run in range(runs)] for d in self.densities]
        )

    def edges_for(self, density: Fraction) -> int:
        return round(density * self.n / 3)

    def run_item(self, spec):
        density, run = spec
        ex = self.hs.experiments
        m = self.edges_for(density)
        t0 = self.clock()
        h = ex.random_hypergraph(self.n, m, 3, ex.stable_seed(self.seed, self.n, density, run))
        p = ex.reduction_proportion(h)
        seconds = self.clock() - t0
        return seconds, {"proportion": str(p).encode()}

    def check_item(self, spec, record):
        density, _ = spec
        m = self.edges_for(density)
        try:
            p = Fraction(record["proportion"].decode())
        except ValueError:
            return ["proportion is not a rational"]
        if not 0 < p <= 1 or (p * m).denominator != 1:
            return [f"proportion {p} is not k/{m} with 0 < k <= {m}"]
        return []

    def _cells(self, records):
        """Per density: (density, runs, exact mean, exact population variance)
        of the proportions, as ``run_cell`` computes them."""
        props: dict[Fraction, list[Fraction]] = {d: [] for d in self.densities}
        for (_, (d, _)), record in zip(self.items, records):
            props[d].append(Fraction(record["proportion"].decode()))
        for d, ps in props.items():
            mean = sum(ps, Fraction(0)) / len(ps)
            yield d, len(ps), mean, sum(((p - mean) ** 2 for p in ps), Fraction(0)) / len(ps)

    def pass_record(self, records):
        ex = self.hs.experiments
        rows = [
            ex.SweepRow(self.n, self.edges_for(d), d, mean, var, runs)
            for d, runs, mean, var in self._cells(records)
        ]
        return {"csv": ex.rows_to_csv(rows).encode()}

    def check_pass(self, record, records):
        lines = ["n,m,density,runs,mean_reduction,stddev"]
        for d, runs, mean, var in self._cells(records):
            lines.append(
                f"{self.n},{self.edges_for(d)},{float(d):.6f},{runs},"
                f"{float(mean):.6f},{sqrt(float(var)):.6f}"
            )
        if record["csv"].decode() != "\n".join(lines) + "\n":
            return ["sweep CSV does not match the per-instance proportions"]
        return []


# ---------------------------------------------------------------------------
# frame-large: CLI ``frame`` on large pre-written inputs
# ---------------------------------------------------------------------------

_PROPORTION = re.compile(r"reduction proportion: (\S+)\n")


class FrameLarge(Workload):
    name = "frame-large"

    # (n, avg degree, instances). Several instances per class keep a run's
    # total and median steady across seeds; n=300 at avg degree 2.6 is left
    # out because one such frame takes ~18 s, more than a pass can average.
    RANDOM = (
        (200, Fraction(13, 5), 4),
        (200, Fraction(3), 4),
        (300, Fraction(3), 7),
    )

    def __init__(self, hs, seed, workdir, random_classes=RANDOM, family_size=64):
        super().__init__(hs, seed, workdir)
        groups = [
            [(f"random/n={n}/d={d}/k={k}", ("random", n, d, k)) for k in range(count)]
            for n, d, count in random_classes
        ]
        groups.append([(f"mountain/{family_size}", ("mountain", family_size))])
        groups.append([(f"fan/{family_size}", ("fan", family_size))])
        self.items = interleave(groups)
        self.family_size = family_size
        self.inputs: dict[object, dict] = {}

    def warmup_spec(self):
        return ("fan", self.family_size)

    def _path(self, spec, suffix: str) -> Path:
        return self.workdir / ("-".join(str(p).replace("/", "_") for p in spec) + suffix)

    def write_inputs(self):
        hs = self.hs
        for _, spec in self.items:
            if spec[0] == "random":
                _, n, d, k = spec
                h = hs.experiments.random_hypergraph(
                    n, round(d * n / 3), 3, derive_seed("frame-large", self.seed, n, d, k)
                )
            elif spec[0] == "mountain":
                h = hs.frames.mountain_range(spec[1])
            else:
                h = hs.frames.fan(spec[1])
            text = hs.hypergraph.dumps_hypergraph(h)
            self._path(spec, ".json").write_text(text, encoding="utf-8")
            self.inputs[spec] = json.loads(text)

    def run_item(self, spec):
        inp, out = self._path(spec, ".json"), self._path(spec, ".frame.json")
        classes = self._path(spec, ".frame.classes.json")
        argv = ["frame", "--in", str(inp), "--out", str(out)]
        seconds, code, stdout = call_cli(self.hs.cli, argv, self.clock)
        record = {"exit": str(code).encode(), "stdout": stdout.encode()}
        if code == 0:
            record["frame"] = out.read_bytes()
            record["classes"] = classes.read_bytes()
        return seconds, record

    def check_item(self, spec, record):
        if record["exit"] != b"0":
            return [f"frame exited {record['exit'].decode()}"]
        problems: list[str] = []
        frame_doc = _parse_json(record["frame"], "frame file", problems)
        classes_doc = _parse_json(record["classes"], "classes file", problems)
        if problems:
            return problems
        source = self.inputs[spec]
        labels = source["vertices"]
        vid = {lab: i for i, lab in enumerate(labels)}
        classes = classes_doc.get("classes")
        try:
            blocks = [[vid[lab] for lab in c] for c in classes]
        except (KeyError, TypeError):
            return ["classes name unknown vertices"]
        members = sorted(v for b in blocks for v in b)
        if members != list(range(len(labels))) or any(not b for b in blocks):
            return ["classes do not partition the vertices"]
        if any(b != sorted(b) for b in blocks) or [b[0] for b in blocks] != sorted(b[0] for b in blocks):
            return ["classes are not in canonical order"]
        class_of = {v: i for i, b in enumerate(blocks) for v in b}
        frame_labels = [labels[b[0]] for b in blocks]
        edges = sorted({tuple(sorted(class_of[vid[lab]] for lab in e)) for e in source["edges"]})
        expected = {
            "ell": source["ell"],
            "vertices": frame_labels,
            "edges": [[frame_labels[i] for i in e] for e in edges],
        }
        if frame_doc != expected or classes_doc.get("frame") != expected:
            problems.append("frame is not the quotient of the input by the classes")
        if classes_doc.get("class_map") != {lab: frame_labels[class_of[i]] for i, lab in enumerate(labels)}:
            problems.append("class_map disagrees with the classes")
        match = _PROPORTION.fullmatch(record["stdout"].decode())
        if not match or match.group(1) != str(Fraction(len(edges), len(source["edges"]))):
            problems.append("printed reduction proportion is wrong")
        if spec[0] == "mountain" and len(blocks) != len(labels):
            problems.append("mountain range is stable, yet vertices fused")
        if spec[0] == "fan" and (len(blocks), len(edges)) != (3, 1):
            problems.append("fan does not collapse to a single segment")
        return problems


# ---------------------------------------------------------------------------
# signals-maps: CLI ``signals --map ... --out`` then ``verify``
# ---------------------------------------------------------------------------

_DIMS = re.compile(r"dim (\d+), constant (\d+)\n")


def skew_rows(rng: random.Random, ell: int) -> list[list[Fraction]]:
    """Two-row map with rational entries, no zero column, rows summing to
    zero: constant signals stay admissible, so every space has dim >= 1."""
    while True:
        rows = []
        for _ in range(2):
            row = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(ell - 1)]
            rows.append(row + [-sum(row)])
        if all(any(r[a] for r in rows) for a in range(ell)):
            return rows


def random_instance(rng: random.Random, n: int, m: int, ell: int, repeats: bool) -> dict:
    """Connected hypergraph document with ``m`` distinct edges covering all
    ``n`` vertices: a spanning chain of edges over a shuffled vertex order,
    topped up with random edges. With ``repeats``, about a third of the
    random edges repeat a vertex. Connected inputs keep the signal
    dimension, and so the work per item, the same from seed to seed."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, ...]] = set()
    covered, i = order[:1], 1
    while i < n:
        fresh = order[i : i + ell - 1]
        i += len(fresh)
        edges.add(tuple(sorted(fresh + rng.sample(covered, ell - len(fresh)))))
        covered += fresh
    while len(edges) < m:
        e = rng.sample(range(n), ell)
        if repeats and rng.random() < 0.3:
            e[1] = e[0]
        edges.add(tuple(sorted(e)))
    labels = [f"v{i}" for i in range(n)]
    return {
        "ell": ell,
        "vertices": labels,
        "edges": [[labels[v] for v in e] for e in sorted(edges)],
    }


def violations(doc: dict, rows: list[list[Fraction]], values: list[list[Fraction]]) -> int:
    """Number of (edge, distinct arrangement, map row) constraints the
    signal breaks, in integer arithmetic after clearing denominators."""
    scale = lcm(*(v.denominator for row in values for v in row))
    sig = [[int(v * scale) for v in row] for row in values]
    vid = {lab: i for i, lab in enumerate(doc["vertices"])}
    int_rows = []
    for row in rows:
        d = lcm(*(c.denominator for c in row))
        int_rows.append([int(c * d) for c in row])
    bad = 0
    for e in doc["edges"]:
        for arr in set(permutations(vid[lab] for lab in e)):
            for row in int_rows:
                if sum(c * sig[a][x] for a, (c, x) in enumerate(zip(row, arr))):
                    bad += 1
    return bad


class SignalsMaps(Workload):
    name = "signals-maps"

    # (ell, n, m). An item is one instance run under each of MAPS: items of
    # one arity then cost about the same, and several small instances per
    # class keep the pass total and the median item steady across seeds.
    SIZES = ((3, 30, 24), (4, 20, 14), (5, 12, 8))
    INSTANCES = 4
    MAPS = ("U", "C", "skew")

    def __init__(self, hs, seed, workdir, sizes=SIZES, instances=INSTANCES):
        super().__init__(hs, seed, workdir)
        self.items = interleave([
            [
                (f"ell={ell}/{'repeats' if repeats else 'simple'}/k={k}", (ell, n, m, repeats, k))
                for k in range(instances)
            ]
            for ell, n, m in sizes
            for repeats in (False, True)
        ])
        self.inputs: dict[tuple, dict] = {}
        self.maps: dict[int, list[list[Fraction]]] = {}

    def _input(self, spec) -> Path:
        ell, n, m, repeats, k = spec
        return self.workdir / f"ell{ell}-n{n}-m{m}-{'rep' if repeats else 'simple'}-{k}.json"

    def write_inputs(self):
        for _, spec in self.items:
            ell, n, m, repeats, _ = spec
            rng = random.Random(derive_seed("signals-maps", self.seed, *spec))
            doc = random_instance(rng, n, m, ell, repeats)
            self.inputs[spec] = doc
            self._input(spec).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        for ell in dict.fromkeys(spec[0] for _, spec in self.items):
            rows = skew_rows(random.Random(derive_seed("skew", self.seed, ell)), ell)
            self.maps[ell] = rows
            (self.workdir / f"skew{ell}.json").write_text(
                json.dumps([[str(c) for c in r] for r in rows]) + "\n", encoding="utf-8"
            )

    def map_rows(self, ell: int, mp: str) -> list[list[Fraction]]:
        if mp == "U":
            return [[Fraction(1)] * ell]
        if mp == "C":
            return [[Fraction(int(a == i) - int(a == i + 1)) for a in range(ell)] for i in range(ell - 1)]
        return self.maps[ell]

    def run_item(self, spec):
        inp, cli = self._input(spec), self.hs.cli
        seconds, record = 0.0, {}
        for mp in self.MAPS:
            out = inp.with_suffix(f".{mp}.signals.json")
            sig = inp.with_suffix(f".{mp}.signal.json")
            map_arg = str(self.workdir / f"skew{spec[0]}.json") if mp == "skew" else mp
            argv = ["signals", "--in", str(inp), "--map", map_arg, "--out", str(out)]
            s, code, stdout = call_cli(cli, argv, self.clock)
            seconds += s
            record[f"{mp}.signals_exit"] = str(code).encode()
            record[f"{mp}.signals_stdout"] = stdout.encode()
            if code != 0:
                continue
            record[f"{mp}.signals_out"] = data = out.read_bytes()
            sig.write_text(json.dumps(json.loads(data)[-1], indent=2) + "\n", encoding="utf-8")
            argv = ["verify", "--in", str(inp), "--signal", str(sig), "--map", map_arg]
            s, code, stdout = call_cli(cli, argv, self.clock)
            seconds += s
            record[f"{mp}.verify_exit"] = str(code).encode()
            record[f"{mp}.verify_stdout"] = stdout.encode()
        return seconds, record

    def check_item(self, spec, record):
        return [f"{mp}: {p}" for mp in self.MAPS for p in self._check_map(spec, mp, record)]

    def _check_map(self, spec, mp, record):
        if record[f"{mp}.signals_exit"] != b"0":
            return [f"signals exited {record[f'{mp}.signals_exit'].decode()}"]
        problems: list[str] = []
        match = _DIMS.fullmatch(record[f"{mp}.signals_stdout"].decode())
        docs = _parse_json(record[f"{mp}.signals_out"], "signals file", problems)
        if problems:
            return problems
        if not match or int(match.group(1)) != len(docs) or int(match.group(2)) > len(docs):
            return ["printed dimensions disagree with the emitted basis"]
        doc = self.inputs[spec]
        ell, n = doc["ell"], len(doc["vertices"])
        vectors = []
        for sdoc in docs:
            if sdoc.get("vertices") != doc["vertices"] or sdoc.get("ell") != ell:
                return ["emitted signal does not match the hypergraph"]
            values = [[Fraction(v) for v in row] for row in sdoc["values"]]
            if len(values) != ell or any(len(row) != n for row in values):
                return ["emitted signal has the wrong shape"]
            if violations(doc, self.map_rows(ell, mp), values):
                problems.append("emitted signal is not admissible")
            vectors.append([v for row in values for v in row])
        # canonical kernel basis: each vector's last nonzero coordinate is 1
        # and every other vector is zero there, so the basis is independent
        lasts = [max((i for i, v in enumerate(vec) if v), default=-1) for vec in vectors]
        for j, (vec, c) in enumerate(zip(vectors, lasts)):
            if c < 0 or vec[c] != 1 or any(o[c] for k, o in enumerate(vectors) if k != j):
                problems.append("emitted basis is not in canonical echelon form")
                break
        if record[f"{mp}.verify_exit"] != b"0" or record[f"{mp}.verify_stdout"] != b"pass\n":
            problems.append("verify rejected an emitted signal")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, FrameLarge, SignalsMaps)}
