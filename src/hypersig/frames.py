"""Fusion relations, frame quotients, stability, folding, and the
constructive hypergraph families used as regression targets.

Two vertices fuse when no admissible signal for the given map separates
them on any axis: the fusion partition is the common refinement of the
level sets of every basis signal on every axis. On connected input the
map decides it (:func:`fusion` says why): discrete under a map with a
zero column, one class under an engaged map of rank at least 2, and the
fusion of the coordinate-sum map under rank 1. :func:`frame` is the one
frame routine: for any map it takes the quotient by that partition.
Taking the frame twice changes nothing, so the frame operator is a
closure on connected uniform hypergraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Sequence

from .errors import DomainError
from .hypergraph import Hypergraph, Partition, _encode, _integer, _rows_text, _sequence
from .signals import LinearMap, _certified_signal, universal_map


@dataclass(frozen=True, eq=True)
class FrameResult:
    """Frame of a hypergraph together with the fusion partition that
    produced it."""

    frame: Hypergraph
    fusion: Partition


def fusion(h: Hypergraph, t: LinearMap) -> Partition:
    """Fusion partition: x and y share a class iff every admissible
    signal agrees on x and y on every axis (the common refinement over
    basis signals and axes).

    On connected ``h`` the map decides it. A zero column leaves its axis
    unconstrained: discrete. Otherwise scale axis ``a`` by
    ``sigma_a = w . T(a) != 0`` into the coordinate-sum map's space, where
    ``u_a - u_0`` is constant on every component. Under rank >= 2, a row
    ``w'`` that is not a multiple of ``sigma`` turns a minor row into
    ``(w'_a/sigma_a - w'_0/sigma_0) * (u_0(e[j]) - u_0(e[0])) = 0``, so
    ``u_0`` and then every axis is constant: one class. Under rank 1,
    every row a multiple of ``v``, ``s`` is admissible iff ``v_a * s_a``
    is under the coordinate-sum map, whose fusion is certified on the
    frame by :func:`~hypersig.signals._certified_frame`, which states
    why. :func:`~hypersig.signals._universal_fusion` gives its two
    routes (the candidate modulo 3 when H has at least as many edges as
    vertices, else a draw on H peeled) and the failures that raise.
    Every case returns the level sets of one signal re-verified under
    ``t``.
    """
    return _certified_signal(h, t)[2]


def frame(h: Hypergraph, t: LinearMap | None = None) -> FrameResult:
    """Frame of ``h`` under ``t`` (default: the coordinate-sum map): the
    quotient by the fusion partition, built once with the partition."""
    _, g, part = _certified_signal(h, universal_map(h.ell) if t is None else t)
    return FrameResult(frame=g, fusion=part)


def is_stable(h: Hypergraph) -> bool:
    """True iff the frame changes nothing: the fusion partition is
    all-singletons."""
    return frame(h).fusion.is_discrete()


def fold_pairs(h: Hypergraph) -> set[tuple[int, int]]:
    """Unordered vertex pairs {x, y} witnessed by two edges that agree as
    multisets once one occurrence of x resp. y is removed. Such pairs
    always fuse; one application only, no transitive closure."""
    groups: dict[tuple[int, ...], set[int]] = {}
    for e in h.edges:
        for i, v in enumerate(e):
            if i > 0 and e[i - 1] == v:
                continue  # same residual as the previous occurrence
            residual = e[:i] + e[i + 1 :]
            groups.setdefault(residual, set()).add(v)
    return {pair for members in groups.values() for pair in combinations(sorted(members), 2)}


def attach_simplex(
    h: Hypergraph, z: str, new_labels: Sequence[str]
) -> Hypergraph:
    """Glue one fresh edge onto vertex ``z``: the edge contains ``z`` and
    ``ell - 1`` new vertices, read by :func:`_sequence`. Preserves stability of the input."""
    z_id = h.vertex_id(z)
    labels = _sequence("new labels", new_labels, "labels")
    if len(labels) != h.ell - 1:
        raise DomainError(f"need exactly {h.ell - 1} new labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise DomainError("new labels must be distinct")
    clash = set(labels) & set(h.vertices)
    if clash:
        raise DomainError(f"labels already present: {sorted(clash)}")
    n = h.n_vertices
    new_edge = (z_id, *range(n, n + len(labels)))
    return Hypergraph.build(h.ell, h.vertices + labels, h.edges + (new_edge,))


def fan(n: int) -> Hypergraph:
    """Fan with ``n`` segments: apex ``u``, rim ``v0..vn``, one edge per
    consecutive rim pair. 3-uniform, connected, n+2 vertices, n edges."""
    if _integer("n", n) < 1:
        raise DomainError("fan needs at least one segment")
    vertices = ["u"] + [f"v{i}" for i in range(n + 1)]
    edges = [(0, i, i + 1) for i in range(1, n + 1)]
    return Hypergraph.build(3, vertices, edges)


def mountain_range(n: int) -> Hypergraph:
    """Chain of ``n`` triangles: bases ``b0..bn``, peaks ``p1..pn``, edge
    (b_{i-1}, p_i, b_i) for each i. 3-uniform, connected, 2n+1 vertices,
    n edges, and stable under the frame operator."""
    if _integer("n", n) < 1:
        raise DomainError("mountain range needs at least one peak")
    vertices = [f"b{i}" for i in range(n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    edges = [(i - 1, i, n + i) for i in range(1, n + 1)]
    return Hypergraph.build(3, vertices, edges)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _classes_text(result: FrameResult, source: Hypergraph, frame_text: str) -> str:
    """The frame classes file of ``result`` (README, "File formats"),
    given ``frame_text``, the :func:`dumps_hypergraph` of ``result.frame``.
    The frame is nested by re-indenting that text, which is safe because
    every label is encoded with its newlines escaped. Each source label is
    encoded once: the classes fill :func:`_rows_text`, and each frame label
    is the encoding of its class's smallest member."""
    classes = result.fusion.classes
    enc = list(map(_encode, source.vertices))
    frame_enc = [enc[block[0]] for block in classes]
    cells = tuple(map(enc.__getitem__, chain.from_iterable(classes)))
    pairs = zip(enc, map(frame_enc.__getitem__, result.fusion.class_of))
    class_map = ",\n    ".join(map(": ".join, pairs))
    frame_block = frame_text[:-1].replace("\n", "\n  ")
    return (
        f'{{\n  "frame": {frame_block},\n'
        f'  "classes": {_rows_text(list(map(len, classes)), cells)},\n'
        f'  "class_map": {{\n    {class_map}\n  }}\n}}\n'
    )
