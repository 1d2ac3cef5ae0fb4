import random
from fractions import Fraction

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
    return LinearMap([[1, -2, 1]])


@pytest.fixture
def skew_signal() -> Signal:
    """Admissible non-constant signal of the triangle under skew_map."""
    return Signal([[0, 0, 2], [1, 1, 0], [0, 0, 2]])


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


def random_chained_instance(
    rng: random.Random, ell: int, n: int, m: int, repeats: bool
) -> Hypergraph:
    """Connected ``ell``-uniform hypergraph with ``m`` distinct edges
    covering all ``n`` vertices, deterministic per rng: a spanning chain
    of edges over a shuffled vertex order, topped up with random edges.
    With ``repeats``, about a third of the random edges repeat a vertex,
    some of them three times."""
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
            k = rng.randint(2, 3)  # e[0] two or three times
            e[1:k] = [e[0]] * (k - 1)
        edges.add(tuple(sorted(e)))
    return Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)


def random_engaged_map(rng: random.Random, ell: int = 3) -> LinearMap:
    """Random small-integer map with no zero column, r in {1, 2}."""
    r = rng.choice((1, 2))
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(ell)] for _ in range(r)]
        if all(any(rows[i][a] != 0 for i in range(r)) for a in range(ell)):
            return LinearMap(rows)


def random_loose_instance(
    rng: random.Random, ell: int, n_max: int = 7, m_max: int = 4
) -> Hypergraph:
    """Random ``ell``-uniform hypergraph that may be disconnected, leave
    vertices in no edge, repeat a vertex in an edge, or hold a one-vertex
    edge ``(x, ..., x)``; deterministic per rng."""
    n = rng.randint(1, n_max)
    edges = set()
    for _ in range(rng.randint(0, m_max)):
        e = rng.choices(range(n), k=ell)
        if rng.random() < 0.15:
            e = [e[0]] * ell
        edges.add(tuple(sorted(e)))
    return Hypergraph.build(ell, [f"x{i}" for i in range(n)], edges)


def random_loose_map(rng: random.Random, ell: int) -> LinearMap:
    """Random map with 1 to 3 rational rows: engaged, with zero columns, or
    the zero map."""
    kind = rng.randrange(4)
    if kind == 0:
        return LinearMap([[0] * ell])
    rows = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ell)]
        for _ in range(rng.randint(1, 3))
    ]
    if kind == 1:
        for z in rng.sample(range(ell), rng.randint(1, ell - 1)):
            for row in rows:
                row[z] = 0
    return LinearMap(rows)
