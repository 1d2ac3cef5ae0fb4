import random

import pytest

from hypersig import Hypergraph, LinearMap, Signal, random_hypergraph
from oracle import covers_all, edges_connected


@pytest.fixture
def triangle() -> Hypergraph:
    return Hypergraph.from_labels(3, ["u", "v", "w"], [("u", "v", "w")])


@pytest.fixture
def fan_five() -> Hypergraph:
    """5-vertex fan: three edges sharing the apex u."""
    return Hypergraph.from_labels(
        3,
        ["u", "v", "w", "x", "y"],
        [("u", "v", "w"), ("u", "w", "x"), ("u", "x", "y")],
    )


@pytest.fixture
def folding_free_six() -> Hypergraph:
    """6-vertex, 4-edge instance whose fusion classes have no folding
    witnesses: no two edges agree after deleting one vertex occurrence."""
    return Hypergraph.from_labels(
        3,
        ["u", "v", "w", "x", "y", "z"],
        [("u", "x", "y"), ("v", "y", "z"), ("u", "v", "w"), ("w", "x", "z")],
    )


@pytest.fixture
def skew_map() -> LinearMap:
    """1x3 map with kernel spanned by (2,1,0) and (1,0,-1)."""
    return LinearMap.from_rows([[1, -2, 1]])


@pytest.fixture
def skew_signal() -> Signal:
    """Admissible non-constant signal of the triangle under skew_map."""
    return Signal.from_rows([[0, 0, 2], [1, 1, 0], [0, 0, 2]])


def random_connected_instance(rng: random.Random, n_max: int = 12, m_max: int = 14) -> Hypergraph:
    """Small random connected 3-uniform hypergraph, deterministic per rng."""
    n = rng.randint(3, n_max)
    bridges = -((n - 1) // -2)
    lo = bridges
    hi = max(lo, min(m_max, n * (n - 1) * (n - 2) // 6))
    m = rng.randint(lo, hi)
    return random_hypergraph(n, m, 3, rng.randrange(2**32))


def random_covered_instance(rng: random.Random, n_max: int = 12) -> Hypergraph:
    """Random 3-uniform hypergraph, possibly disconnected, where every
    vertex lies in at least one edge (multiset edges allowed)."""
    n = rng.randint(3, n_max)
    m = rng.randint(1, max(1, n))
    edges = set()
    for _ in range(m):
        edges.add(tuple(sorted(rng.choices(range(n), k=3))))
    covered = sorted({v for e in edges for v in e})
    relabel = {v: i for i, v in enumerate(covered)}
    labels = [f"x{v}" for v in covered]
    return Hypergraph.build(3, labels, [tuple(relabel[v] for v in e) for e in edges])


def random_multiset_instance(
    rng: random.Random, ell: int, n_max: int = 6, m_max: int = 3
) -> Hypergraph:
    """Small random connected ``ell``-uniform hypergraph whose edges may
    repeat a vertex, deterministic per rng. Every vertex lies in an edge."""
    while True:
        n = rng.randint(3, n_max)
        m = rng.randint(1, m_max)
        edges = {tuple(sorted(rng.choices(range(n), k=ell))) for _ in range(m)}
        h = Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)
        if covers_all(n, h.edges) and edges_connected(n, h.edges):
            return h


def random_engaged_map(rng: random.Random, ell: int = 3) -> LinearMap:
    """Random small-integer map with no zero column, r in {1, 2}."""
    r = rng.choice((1, 2))
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(ell)] for _ in range(r)]
        if all(any(rows[i][a] != 0 for i in range(r)) for a in range(ell)):
            return LinearMap.from_rows(rows)
