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
from typing import Sequence

from .errors import DomainError
from .hypergraph import Hypergraph, Partition, hypergraph_to_json, quotient
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
    is under the coordinate-sum map, whose fusion is certified from one
    kernel vector of the edge-sum system
    (:func:`~hypersig.signals._universal_fusion`). Every case returns
    the level sets of one signal re-verified under ``t``.
    """
    return _certified_signal(h, t)[1]


def frame(h: Hypergraph, t: LinearMap | None = None) -> FrameResult:
    """Frame of ``h`` under ``t`` (default: the coordinate-sum map): the
    quotient by the fusion partition."""
    part = fusion(h, universal_map(h.ell) if t is None else t)
    return FrameResult(frame=quotient(h, part), fusion=part)


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
    pairs: set[tuple[int, int]] = set()
    for members in groups.values():
        ordered = sorted(members)
        for i, x in enumerate(ordered):
            for y in ordered[i + 1 :]:
                pairs.add((x, y))
    return pairs


def attach_simplex(
    h: Hypergraph, z: str, new_labels: Sequence[str]
) -> Hypergraph:
    """Glue one fresh edge onto vertex ``z``: the edge contains ``z`` and
    ``ell - 1`` brand new vertices. Preserves stability of the input."""
    z_id = h.vertex_id(z)
    labels = list(new_labels)
    if len(labels) != h.ell - 1:
        raise DomainError(f"need exactly {h.ell - 1} new labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise DomainError("new labels must be distinct")
    clash = set(labels) & set(h.vertices)
    if clash:
        raise DomainError(f"labels already present: {sorted(clash)}")
    n = h.n_vertices
    new_edge = tuple(sorted([z_id] + list(range(n, n + len(labels)))))
    return Hypergraph(
        h.ell,
        h.vertices + tuple(labels),
        tuple(sorted(set(h.edges) | {new_edge})),
    )


def fan(n: int) -> Hypergraph:
    """Fan with ``n`` segments: apex ``u``, rim ``v0..vn``, one edge per
    consecutive rim pair. 3-uniform, connected, n+2 vertices, n edges."""
    if n < 1:
        raise DomainError("fan needs at least one segment")
    vertices = ["u"] + [f"v{i}" for i in range(n + 1)]
    edges = [(0, i, i + 1) for i in range(1, n + 1)]
    return Hypergraph.build(3, vertices, edges)


def mountain_range(n: int) -> Hypergraph:
    """Chain of ``n`` triangles: bases ``b0..bn``, peaks ``p1..pn``, edge
    (b_{i-1}, p_i, b_i) for each i. 3-uniform, connected, 2n+1 vertices,
    n edges, and stable under the frame operator."""
    if n < 1:
        raise DomainError("mountain range needs at least one peak")
    vertices = [f"b{i}" for i in range(n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    edges = [(i - 1, i, n + i) for i in range(1, n + 1)]
    return Hypergraph.build(3, vertices, edges)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def frame_result_to_json(result: FrameResult, source: Hypergraph) -> dict:
    """The frame, the fusion classes and the label map from original to
    frame vertices, read off the classes: :func:`quotient` labels each
    class by its smallest member."""
    frame_labels, class_of = result.frame.vertices, result.fusion.class_of
    return {
        "frame": hypergraph_to_json(result.frame),
        "classes": [[source.vertices[v] for v in block] for block in result.fusion.classes],
        "class_map": {x: frame_labels[c] for x, c in zip(source.vertices, class_of)},
    }

