"""Uniform hypergraphs with orbit-representative edges, plus partitions,
connectivity and generic quotients.

An edge is an unordered multiset of exactly ``ell`` vertices, stored as
its sorted tuple of vertex ids (the canonical representative of the orbit
of tuples under permutation of positions). Vertex labels are arbitrary
strings; internally vertices are dense integer ids given by their
position in the vertex list.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DomainError, FormatError

log = logging.getLogger(__name__)

MIN_ARITY = 3


@dataclass(frozen=True)
class Hypergraph:
    """Immutable ``ell``-uniform hypergraph.

    ``vertices`` is an ordered tuple of distinct labels (index = vertex id);
    ``edges`` is a lexicographically sorted tuple of canonical edge tuples.
    Repeated vertices inside an edge are allowed; repeated edges are not
    (the edge set is a set of orbits).
    """

    ell: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.ell < MIN_ARITY:
            raise DomainError(f"arity must be >= {MIN_ARITY}, got {self.ell}")
        if not self.vertices:
            raise DomainError("vertex set must be nonempty")
        if len(set(self.vertices)) != len(self.vertices):
            raise DomainError("vertex labels must be distinct")
        n = len(self.vertices)
        for e in self.edges:
            if len(e) != self.ell:
                raise DomainError(f"edge {e} has wrong arity")
            if any(not (0 <= v < n) for v in e):
                raise DomainError(f"edge {e} references unknown vertex id")
            if tuple(sorted(e)) != e:
                raise DomainError(f"edge {e} is not canonical (sorted)")
        if len(set(self.edges)) != len(self.edges):
            raise DomainError("duplicate edges")
        if tuple(sorted(self.edges)) != self.edges:
            raise DomainError("edges not in canonical order")

    @classmethod
    def build(
        cls,
        ell: int,
        vertices: Sequence[str],
        edges: Iterable[Sequence[int]] = (),
    ) -> "Hypergraph":
        """Construct from arbitrary edge tuples, canonicalizing and
        collapsing duplicate orbits silently."""
        canon = {tuple(sorted(e)) for e in edges}
        return cls(ell, tuple(vertices), tuple(sorted(canon)))

    @classmethod
    def from_labels(
        cls,
        ell: int,
        vertices: Sequence[str],
        edges: Iterable[Sequence[str]] = (),
    ) -> "Hypergraph":
        index = {lab: i for i, lab in enumerate(vertices)}
        id_edges = []
        for e in edges:
            try:
                id_edges.append([index[lab] for lab in e])
            except KeyError as exc:
                raise DomainError(f"unknown vertex label {exc.args[0]!r}") from None
        return cls.build(ell, vertices, id_edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_id(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise DomainError(f"unknown vertex label {label!r}") from None

    def edge_labels(self, e: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.vertices[v] for v in e)


def arrangements(e: Sequence[int]) -> list[tuple[int, ...]]:
    """All distinct tuples obtained by permuting the entries of ``e``,
    in lexicographic order.

    For an edge with entry multiplicities ``m1, m2, ...`` this yields
    ``ell! / (m1! * m2! * ...)`` tuples.
    """
    return sorted(set(permutations(e)))


@dataclass(frozen=True)
class Partition:
    """Partition of ``{0, ..., n-1}`` into canonical classes.

    Classes are sorted member lists; class ids are assigned so that the
    class containing the smallest uncovered id gets the next id. Two
    equal partitions therefore have identical encodings.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...] = field(compare=False)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Sequence[int]], n: int) -> "Partition":
        ordered = [tuple(sorted(b)) for b in blocks]
        if not all(ordered):
            raise DomainError("empty class")
        ordered.sort(key=lambda b: b[0])
        class_of = [-1] * n
        for cid, block in enumerate(ordered):
            for x in block:
                if not (0 <= x < n):
                    raise DomainError(f"member {x} out of range")
                if class_of[x] != -1:
                    raise DomainError(f"member {x} in two classes")
                class_of[x] = cid
        if any(c == -1 for c in class_of):
            raise DomainError("partition does not cover all elements")
        return cls(tuple(ordered), tuple(class_of))

    @classmethod
    def from_keys(cls, keys: Sequence) -> "Partition":
        """Group elements by equal key; one class per distinct key. Classes
        in order of first occurrence are already canonical."""
        ids: dict = {}
        class_of = tuple(ids.setdefault(k, len(ids)) for k in keys)
        classes: list[list[int]] = [[] for _ in ids]
        for x, cid in enumerate(class_of):
            classes[cid].append(x)
        return cls(tuple(map(tuple, classes)), class_of)

    @property
    def n_elements(self) -> int:
        return len(self.class_of)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def is_discrete(self) -> bool:
        return self.n_classes == self.n_elements


def _component_roots(n: int, edges: Iterable[Sequence[int]]) -> list[int]:
    """Union-find over ``range(n)`` merging all vertices of each edge; the
    root of every vertex, so equal roots mean one component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        r = find(e[0])
        for v in e[1:]:
            rv = find(v)
            if rv != r:
                parent[rv] = r
    return [find(x) for x in range(n)]


def components(h: Hypergraph) -> Partition:
    """Connected components: vertices sharing an edge are merged, and
    isolated vertices end up in singleton classes."""
    return Partition.from_keys(_component_roots(h.n_vertices, h.edges))


def is_connected(h: Hypergraph) -> bool:
    return len(set(_component_roots(h.n_vertices, h.edges))) == 1


def quotient(h: Hypergraph, p: Partition) -> Hypergraph:
    """Quotient of ``h`` by the equivalence ``p``.

    Each class becomes one vertex, labelled by the original label of its
    smallest member; edges are mapped entrywise through the class map and
    canonicalized, with duplicate images collapsed (the quotient edge set
    is a set of orbits).
    """
    if p.n_elements != h.n_vertices:
        raise DomainError(
            f"partition covers {p.n_elements} elements, hypergraph has {h.n_vertices}"
        )
    labels = tuple(h.vertices[block[0]] for block in p.classes)
    return Hypergraph.build(h.ell, labels, ([p.class_of[v] for v in e] for e in h.edges))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
#
# Schema shared by every CLI command:
#   {"ell": int, "vertices": [str, ...], "edges": [[str, ...], ...]}
# Edge member order is irrelevant; edges are canonicalized on load and
# duplicate orbits are collapsed with a logged warning.


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {
        "ell": h.ell,
        "vertices": list(h.vertices),
        "edges": [list(h.edge_labels(e)) for e in h.edges],
    }


def hypergraph_from_json(obj) -> Hypergraph:
    if not isinstance(obj, dict):
        raise FormatError("hypergraph document must be a JSON object")
    try:
        ell = obj["ell"]
        vertices = obj["vertices"]
        edges = obj["edges"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from None
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise FormatError("'ell' must be an integer")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise FormatError("'vertices' must be an array of strings")
    if not isinstance(edges, list):
        raise FormatError("'edges' must be an array")
    index = {lab: i for i, lab in enumerate(vertices)}
    id_edges = []
    for e in edges:
        if not isinstance(e, list) or len(e) != ell:
            raise FormatError(f"edge {e!r} must be an array of {ell} vertex labels")
        try:
            id_edges.append([index[lab] for lab in e])
        except (KeyError, TypeError):
            raise FormatError(f"edge {e!r} references unknown vertex") from None
    try:
        h = Hypergraph.build(ell, vertices, id_edges)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
    if h.n_edges != len(id_edges):
        log.warning("collapsed %d duplicate edge orbit(s)", len(id_edges) - h.n_edges)
    return h


def dumps_hypergraph(h: Hypergraph) -> str:
    return _dumps(hypergraph_to_json(h))


def save_hypergraph(h: Hypergraph, path: str | Path) -> None:
    _write_text(path, dumps_hypergraph(h))


def _dumps(obj) -> str:
    """JSON text as every file of this package is written: indent 2, newline."""
    return json.dumps(obj, indent=2) + "\n"


def _read_json(path: str | Path):
    """Parsed contents of a UTF-8 JSON file; a file that does not decode or
    parse (too many digits and too deep nesting included) is a FormatError
    naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _write_text(path: str | Path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` (UTF-8) atomically; see
    :func:`_write_texts`."""
    _write_texts([(path, text)])


def _write_texts(files: Sequence[tuple[str | Path, str]]) -> None:
    """Replace each ``(path, text)`` file with its UTF-8 text, atomically
    per file and all or nothing up to the renames: every text goes to a
    temporary file in its target's directory before the first
    ``os.replace`` renames one over its target, and the temporaries not
    yet renamed are removed if anything fails. A directory target fails
    while staging. A pipe or device is written through, in turn with the
    renames: there is no file to replace."""
    staged: list[tuple[Path, Path | None, str]] = []
    try:
        for i, (path, text) in enumerate(files):
            path = Path(path)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if path.exists() and not path.is_file():
                staged.append((path, None, text))
                continue
            tmp = path.parent / f".{path.name}.{os.getpid()}.{i}.tmp"
            try:
                f = open(tmp, "x", encoding="utf-8")
            except OSError as exc:
                # name the target, not the temporary file
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            staged.append((path, tmp, text))
            with f:
                f.write(text)
        while staged:
            path, tmp, text = staged[0]
            if tmp is None:
                path.write_text(text, encoding="utf-8")
            else:
                os.replace(tmp, path)
            del staged[0]
    except BaseException:
        for _, tmp, _ in staged:
            if tmp is not None:
                tmp.unlink(missing_ok=True)
        raise


def load_hypergraph(path: str | Path) -> Hypergraph:
    return hypergraph_from_json(_read_json(path))
