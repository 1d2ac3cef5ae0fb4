"""Command-line interface.

Subcommands: ``signals``, ``frame``, ``components``, ``generate``,
``sweep``, ``verify``, ``export-dot``. All behavior is controlled by
flags (no environment variables); identical inputs, flags and seeds give
identical output. Exit codes: 0 success, 1 domain error (disconnected
input, infeasible parameters, failed verification), 2 I/O or format
error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .errors import DisconnectedError, DomainError, FormatError
from .experiments import DENSITY_MODES, SweepConfig, random_hypergraph, rows_to_csv, run_sweep
from .frames import _classes_text, fan, frame, mountain_range
from .hypergraph import (
    Hypergraph,
    _write_texts,
    components,
    dumps_hypergraph,
    load_hypergraph,
)
from .signals import (
    LinearMap,
    _basis_chunks,
    _verified_basis,
    centroid_map,
    component_count_via_C,
    find_violation,
    is_engaged,
    load_linear_map,
    load_signal,
    universal_map,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_FORMAT = 2


def _resolve_map(choice: str, ell: int) -> LinearMap:
    if choice == "U":
        return universal_map(ell)
    if choice == "C":
        return centroid_map(ell)
    return load_linear_map(choice)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_texts([(out, text)])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_signals(args: argparse.Namespace) -> int:
    h = load_hypergraph(args.infile)
    t = _resolve_map(args.map, h.ell)
    # a map of the wrong arity fails here, before any warning
    basis, constant = _verified_basis(h, t)
    if not is_engaged(t):
        print(
            "warning: map is not engaged (it has a zero column); "
            "the corresponding axis is unconstrained",
            file=sys.stderr,
        )
    print(f"dim {len(basis)}, constant {constant}")
    if args.out:
        _write_texts([(args.out, _basis_chunks(h, basis))])
    return EXIT_OK


def cmd_frame(args: argparse.Namespace) -> int:
    if args.out and args.classes and Path(args.out).resolve() == Path(args.classes).resolve():
        raise FormatError(f"--out {args.out} and --classes {args.classes} name the same file")
    h = load_hypergraph(args.infile)
    try:
        result = frame(h)
    except DisconnectedError:
        print(
            "error: input hypergraph is disconnected; "
            "use the 'components' command to inspect it",
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    if h.n_edges:
        print(f"reduction proportion: {Fraction(result.frame.n_edges, h.n_edges)}")
    frame_text = dumps_hypergraph(result.frame)
    files = [(args.out, frame_text)] if args.out else []
    classes = args.classes or (args.out and _default_classes_path(args.out))
    if classes:
        files.append((classes, _classes_text(result, h, frame_text)))
    if not args.out:
        sys.stdout.write(frame_text)
    _write_texts(files)
    return EXIT_OK


def _default_classes_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + ".classes.json"))


def cmd_components(args: argparse.Namespace) -> int:
    h = load_hypergraph(args.infile)
    count = components(h).n_classes
    dim = component_count_via_C(h)
    print(f"components: {count}, centroid signal dimension: {dim}")
    if count != dim:
        loose = h.n_vertices - len({v for e in h.edges for v in e})
        if loose:
            print(
                f"component counts disagree because {loose} vertex(es) lie in no edge; "
                f"each is one component but adds {h.ell} centroid signal dimensions",
                file=sys.stderr,
            )
        else:
            print("internal error: component counts disagree", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "random":
        if args.m is None:
            raise DomainError("random generation requires --m")
        h = random_hypergraph(args.n, args.m, args.ell, args.seed)
    elif args.kind == "fan":
        h = fan(args.n)
    else:
        h = mountain_range(args.n)
    _write_or_print(dumps_hypergraph(h), args.out)
    return EXIT_OK


def _parse_list(flag: str, text: str, parse) -> tuple:
    """Items of a comma-separated flag value; a bad item is a FormatError."""
    items = []
    for s in filter(None, text.split(",")):
        try:
            items.append(parse(s))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"invalid value {s!r} for {flag}") from None
    return tuple(items)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        vertex_counts=_parse_list("--sizes", args.sizes, int),
        densities=_parse_list("--densities", args.densities, Fraction),
        runs_per_cell=args.runs,
        seed=args.seed,
        ell=args.ell,
        density_mode=args.density_mode,
    )
    rows = run_sweep(cfg)
    for row in rows:
        if row.error is not None:
            print(
                f"warning: cell n={row.n} density={row.density} infeasible: {row.error}",
                file=sys.stderr,
            )
    _write_or_print(rows_to_csv(rows), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    h = load_hypergraph(args.infile)
    vertices, ell, sig = load_signal(args.signal)
    if ell != h.ell:
        raise FormatError(f"signal file has ell {ell}, the hypergraph has ell {h.ell}")
    if vertices != h.vertices:
        raise FormatError("signal file does not match the hypergraph's vertices")
    t = _resolve_map(args.map, h.ell)
    witness = find_violation(h, t, sig)
    if witness is None:
        print("pass")
        return EXIT_OK
    edge, arrangement, row = witness
    print(
        "fail: edge=({}) arrangement=({}) map_row={}".format(
            ",".join(h.edge_labels(edge)),
            ",".join(h.edge_labels(arrangement)),
            row,
        )
    )
    return EXIT_DOMAIN


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(h: Hypergraph) -> str:
    """Bipartite incidence rendering: one circle node per vertex, one box
    node per edge, an arc per incidence with a multiplicity label when a
    vertex repeats inside an edge."""
    lines = ["graph incidence {"]
    for i, label in enumerate(h.vertices):
        lines.append(f"  v{i} [shape=circle, label={_dot_quote(label)}];")
    for j, e in enumerate(h.edges):
        lines.append(f"  e{j} [shape=box, label={_dot_quote('e' + str(j))}];")
        for v, count in sorted(Counter(e).items()):
            if count > 1:
                lines.append(f'  v{v} -- e{j} [label="{count}"];')
            else:
                lines.append(f"  v{v} -- e{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args: argparse.Namespace) -> int:
    h = load_hypergraph(args.infile)
    _write_or_print(to_dot(h), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hypersig`` parser, built once and shared by every call of
    :func:`main`: a build takes milliseconds, and parsing leaves no state
    in the parser."""
    parser = argparse.ArgumentParser(
        prog="hypersig",
        description="Exact signal invariants, fusion and frame quotients of "
        "uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_in(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="infile", required=True, help="hypergraph JSON file")

    p = sub.add_parser("signals", help="dimension of the signal space of a map")
    add_in(p)
    p.add_argument("--map", default="U", help="U, C, or a path to a matrix JSON file")
    p.add_argument("--out", default=None, help="write basis signals (JSON array)")

    p = sub.add_parser("frame", help="fusion classes and frame quotient")
    add_in(p)
    p.add_argument("--out", default=None, help="write the frame hypergraph JSON here")
    p.add_argument(
        "--classes",
        default=None,
        help="write the classes JSON here (default: derived from --out)",
    )

    p = sub.add_parser("components", help="cross-checked component count")
    add_in(p)

    p = sub.add_parser("generate", help="write a generated hypergraph")
    p.add_argument("kind", choices=("random", "fan", "mountain"))
    p.add_argument("--n", type=int, required=True, help="vertices / segments / peaks")
    p.add_argument("--m", type=int, default=None, help="edge count (random only)")
    p.add_argument("--ell", type=int, default=3, help="arity (random only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="reduction-proportion sweep, CSV output")
    p.add_argument("--sizes", default="50,100,150,200", help="comma-separated vertex counts")
    p.add_argument(
        "--densities",
        default="2.3,2.4,2.5,2.6,2.7,2.8,2.9,3.0",
        help="comma-separated densities",
    )
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--density-mode", choices=DENSITY_MODES, default="edges-per-vertex")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="exact admissibility check of a signal file")
    add_in(p)
    p.add_argument("--signal", required=True, help="signal JSON file")
    p.add_argument("--map", default="U", help="U, C, or a path to a matrix JSON file")

    p = sub.add_parser("export-dot", help="bipartite incidence graph in DOT format")
    add_in(p)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # looked up per call: the cached parser would keep its first build's handlers
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
