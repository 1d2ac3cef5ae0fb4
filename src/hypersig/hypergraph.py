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
from collections.abc import Mapping, Set
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, repeat
from operator import le, lt
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DomainError, FormatError

log = logging.getLogger(__name__)
_encode = json.encoder.encode_basestring_ascii

MIN_ARITY = 3


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` if it is an ``int`` itself, at least ``least``; else a ``DomainError``."""
    if type(value) is not int:
        raise DomainError(f"{name} {value!r} has type {type(value).__name__}; expected int")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def _sequence(name: str, value, of: str) -> tuple:
    """``value`` read once into a tuple: a ``list``, ``tuple``, ``range`` or
    other iterable, but no ``str`` or ``bytes`` (its characters), set (its
    hash order) or mapping (its keys); anything else is a ``DomainError``."""
    if type(value) in (list, tuple, range):  # exact types first: the ABC checks cost more
        return tuple(value)
    try:
        if isinstance(value, (str, bytes, Set, Mapping)):
            raise TypeError  # iterable, but not as the items it holds
        items = iter(value)
    except TypeError:
        kind = type(value).__name__
        raise DomainError(f"{name} must be a sequence of {of}, got {kind}") from None
    return tuple(items)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable ``ell``-uniform hypergraph.

    ``vertices`` is an ordered tuple of distinct labels (index = vertex id);
    ``edges`` is a lexicographically sorted tuple of canonical edge tuples.
    Repeated vertices inside an edge are allowed; repeated edges are not
    (the edge set is a set of orbits). The constructor checks each of these
    facts once and refuses any other value with a ``DomainError`` naming
    it: an arity that is not an int >= 3, labels that are not distinct
    strings, and ids that are not ints (bools included) in range.
    """

    ell: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ell, vertices, edges = _integer("arity", self.ell, MIN_ARITY), self.vertices, self.edges
        if not isinstance(vertices, tuple):
            raise DomainError(f"vertices must be a tuple, got {type(vertices).__name__}")
        if not all(map(isinstance, vertices, repeat(str))):
            i, x = next((i, x) for i, x in enumerate(vertices) if not isinstance(x, str))
            kind = type(x).__name__
            raise DomainError(f"vertex {i} has label {x!r} of type {kind}; expected str")
        if not vertices:
            raise DomainError("vertex set must be nonempty")
        if len(set(vertices)) != len(vertices):
            raise DomainError("vertex labels must be distinct")
        n = len(vertices)
        with suppress(TypeError):  # whole-sequence checks; the loop below names a faulty edge
            cols = tuple(zip(*edges))  # cols[j][i] is edges[i][j]: le below pairs e[j], e[j + 1]
            if (
                isinstance(edges, tuple) and all(map(isinstance, edges, repeat(tuple)))
                and set(map(len, edges)) <= {ell}
                and set(map(type, chain.from_iterable(cols))) <= {int}
                and all(map(le, chain.from_iterable(cols[:-1]), chain.from_iterable(cols[1:])))
                and (not edges or 0 <= min(cols[0]) and max(cols[-1]) < n)  # ends bound edges
            ):  # every edge is canonical: only their order is left
                if all(map(lt, edges, edges[1:])):
                    return
                if len(set(edges)) < len(edges):
                    raise DomainError("duplicate edges")
                raise DomainError("edges not in canonical order")
        if not isinstance(edges, tuple):
            raise DomainError(f"edges must be a tuple of tuples, got {type(edges).__name__}")
        for e in edges:
            if not isinstance(e, tuple):
                raise DomainError(f"edge {e!r} has type {type(e).__name__}; expected tuple")
            if len(e) != ell:
                raise DomainError(f"edge {e} has wrong arity")
            odd = [v for v in e if type(v) is not int]
            if odd:
                kind = type(odd[0]).__name__
                raise DomainError(f"edge {e} has vertex id {odd[0]!r} of type {kind}; expected int")
            if any(not (0 <= v < n) for v in e):
                raise DomainError(f"edge {e} references unknown vertex id")
            if tuple(sorted(e)) != e:
                raise DomainError(f"edge {e} is not canonical (sorted)")

    @classmethod
    def build(
        cls,
        ell: int,
        vertices: Sequence[str],
        edges: Iterable[Sequence[int]] = (),
    ) -> "Hypergraph":
        """Construct from arbitrary edge tuples, canonicalizing and
        collapsing duplicate orbits silently. The vertices are read by
        :func:`_sequence`, the edges may be any iterable, and edges that do
        not sort, as with a ``None`` id, raise ``DomainError`` here."""
        labels = _sequence("vertices", vertices, "labels")
        try:
            canon = sorted(set(map(tuple, map(sorted, edges))))
        except TypeError as exc:
            raise DomainError(f"edges must be sequences of int vertex ids: {exc}") from None
        return cls(ell, labels, tuple(canon))

    @classmethod
    def from_labels(
        cls,
        ell: int,
        vertices: Sequence[str],
        edges: Iterable[Sequence[str]] = (),
    ) -> "Hypergraph":
        """Construct from any iterable of edges given as label sequences,
        each edge and the vertices read by :func:`_sequence`. When every
        edge is a list or tuple of k labels, all known, the ids are tried
        as they come: ``__post_init__`` accepts edges already canonical, as
        every document this package writes holds, with no sort. Edges it
        rejects go through :meth:`build`, which canonicalizes them,
        collapses duplicate orbits and words every other fault."""
        labels = _sequence("vertices", vertices, "labels")
        try:
            index = {lab: i for i, lab in enumerate(labels)}
        except TypeError:  # an unhashable label: the constructor names it
            return cls.build(ell, labels)
        ids = None
        if isinstance(edges, (list, tuple)) and set(map(type, edges)) <= {list, tuple}:
            with suppress(KeyError, TypeError, ValueError):  # the loop below words the fault
                (k,) = set(map(len, edges))
                ids = list(map(index.__getitem__, chain.from_iterable(edges)))
        if ids:  # every edge has k labels, all known
            id_edges = tuple(zip(*[iter(ids)] * k))
            with suppress(DomainError):
                return cls(ell, labels, id_edges)
            return cls.build(ell, labels, id_edges)
        try:
            edges = iter(edges)
        except TypeError:
            kind = type(edges).__name__
            raise DomainError(f"edges must be a sequence of label sequences, got {kind}") from None
        id_edges = []
        for e in edges:
            try:
                id_edges.append([index[lab] for lab in _sequence(f"edge {e!r}", e, "labels")])
            except (KeyError, TypeError):  # an unhashable label is no known label either
                raise DomainError(f"edge {e!r} references unknown vertex") from None
        return cls.build(ell, labels, id_edges)

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
    """Partition of ``{0, ..., n-1}``, held as its class map: ``class_of[x]``
    is the class of ``x``, ids numbered 0, 1, ... in order of first
    occurrence, so equal partitions are equal maps. Any other map (no
    tuple, a non-int or bool id, an id out of order) is a ``DomainError``."""

    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.class_of
        if not isinstance(c, tuple):
            raise DomainError(f"class map must be a tuple, got {type(c).__name__}")
        if not set(map(type, c)) <= {int}:
            x, v = next((x, v) for x, v in enumerate(c) if type(v) is not int)
            kind = type(v).__name__
            raise DomainError(f"element {x} has class id {v!r} of type {kind}; expected int")
        ids = list(dict.fromkeys(c))
        if ids != list(range(len(ids))):
            k, v = next((k, v) for k, v in enumerate(ids) if v != k)  # ids[:k] are 0..k-1
            raise DomainError(f"element {c.index(v)} has class id {v}; expected 0 to {k}")

    @classmethod
    def from_keys(cls, keys: Sequence) -> "Partition":
        """Group elements by equal key, one class per distinct key. The
        keys are read by :func:`_sequence`; a key that does not hash
        raises ``DomainError``."""
        keys, ids = _sequence("keys", keys, "hashables"), {}
        try:
            return cls(tuple(ids.setdefault(k, len(ids)) for k in keys))
        except TypeError as exc:  # an unhashable key
            raise DomainError(f"keys must be hashable: {exc}") from None

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes in id order, each its members ascending; built once."""
        classes: list[list[int]] = [[] for _ in range(self.n_classes)]
        for x, cid in enumerate(self.class_of):
            classes[cid].append(x)
        return tuple(map(tuple, classes))

    @property
    def n_elements(self) -> int:
        return len(self.class_of)

    @property
    def n_classes(self) -> int:
        return max(self.class_of, default=-1) + 1

    def is_discrete(self) -> bool:
        return self.n_classes == self.n_elements


def _component_roots(n: int, edges: Iterable[Sequence[int]]) -> list[int]:
    """Union-find over ``range(n)`` merging all vertices of each edge; the
    root of every vertex, so equal roots mean one component. Each edge's
    later vertices are hung under the root of its first, and every find
    halves its path; the finds are written out inline, as a call per find
    costs more than the find itself on sparse inputs."""
    parent = list(range(n))
    for e in edges:
        r = e[0]
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        for v in e[1:]:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if v != r:
                parent[v] = r
    roots = []
    for x in range(n):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        roots.append(x)
    return roots


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
    is a set of orbits). The edges are mapped column by column, the
    ``j``-th vertex of every edge at once, and zipped back into edges.
    """
    if p.n_elements != (n := h.n_vertices):
        raise DomainError(f"partition covers {p.n_elements} elements, hypergraph has {n}")
    labels = tuple(h.vertices[block[0]] for block in p.classes)  # built once, kept by p
    get = p.class_of.__getitem__
    return Hypergraph.build(h.ell, labels, zip(*(map(get, c) for c in zip(*h.edges))))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
#
# The hypergraph file, shared by every CLI command, is stated once, in
# README's "File formats" section.


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
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise FormatError("'vertices' must be an array of strings")
    if not isinstance(edges, list):
        raise FormatError("'edges' must be an array")

    def shaped(e):
        if not isinstance(e, list) or len(e) != ell:
            raise FormatError(f"edge {e!r} must be an array of {ell} vertex labels")
        return e

    well_shaped = all(map(isinstance, edges, repeat(list))) and set(map(len, edges)) <= {ell}
    labelled = edges if well_shaped else map(shaped, edges)  # lazy: the first faulty edge is named
    try:
        h = Hypergraph.from_labels(ell, vertices, labelled)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
    if h.n_edges != len(edges):
        log.warning("collapsed %d duplicate edge orbit(s)", len(edges) - h.n_edges)
    return h


def dumps_hypergraph(h: Hypergraph) -> str:
    """The hypergraph file of ``h`` (README, "File formats"), rendered from
    the integer edges: each vertex label is encoded once, and the edge
    block is filled from those encodings by :func:`_rows_text`."""
    enc = list(map(_encode, h.vertices))
    cells = tuple(map(enc.__getitem__, chain.from_iterable(h.edges)))
    sep = ",\n    "
    return (
        f'{{\n  "ell": {h.ell},\n  "vertices": [\n    {sep.join(enc)}\n  ],\n'
        f'  "edges": {_rows_text((h.ell,) * h.n_edges, cells)}\n}}\n'
    )


def save_hypergraph(h: Hypergraph, path: str | Path) -> None:
    _write_texts([(path, dumps_hypergraph(h))])


def _rows_text(lengths: Sequence[int], cells: tuple[str, ...]) -> str:
    """:func:`json.dumps` at indent 2 of a list of nonempty rows of
    strings, as the value of a field of a top-level object, given each
    row's length and the encoded strings of all rows in order. The rows
    are one ``%`` of ``cells`` into a template of ``%s`` slots, so a ``%``
    in a string is never part of the template."""
    if not lengths:
        return "[]"
    slot = ",\n      "
    template = {k: f"[\n      {slot.join(['%s'] * k)}\n    ]" for k in set(lengths)}
    body = ",\n    ".join(map(template.__getitem__, lengths)) % cells
    return f"[\n    {body}\n  ]"


def _read_json(path: str | Path):
    """Parsed contents of a UTF-8 JSON file; a file that does not decode or
    parse (too many digits and too deep nesting included) is a FormatError
    naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _write_texts(files: Sequence[tuple[str | Path, str | Iterable[str]]]) -> None:
    """Replace each ``(path, text)`` file with its UTF-8 text, atomically
    per file and all or nothing up to the renames: every text goes to a
    temporary file in its target's directory before the first
    ``os.replace`` renames one over its target, and the temporaries not
    yet renamed are removed if anything fails. A text is a ``str`` or an
    iterable of ``str`` chunks, each written as it is produced, so a
    failure while producing one is a failure while staging. A directory
    target fails while staging. A pipe or device is written through, in
    turn with the renames: there is no file to replace."""
    staged: list[tuple[Path, Path | None, Iterable[str]]] = []
    try:
        for i, (path, text) in enumerate(files):
            path, chunks = Path(path), (text,) if isinstance(text, str) else text
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if path.exists() and not path.is_file():
                staged.append((path, None, chunks))
                continue
            tmp = path.parent / f".{path.name}.{os.getpid()}.{i}.tmp"
            try:
                f = open(tmp, "x", encoding="utf-8")
            except OSError as exc:
                # name the target, not the temporary file
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            staged.append((path, tmp, chunks))
            with f:
                f.writelines(chunks)
        while staged:
            path, tmp, chunks = staged[0]
            if tmp is None:
                with open(path, "w", encoding="utf-8") as f:
                    f.writelines(chunks)
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
