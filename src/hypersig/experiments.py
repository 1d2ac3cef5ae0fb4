"""Random hypergraph generation and the reduction-proportion sweep.

The sweep measures, per (vertex count, density) cell, the average ratio of
frame edges to input edges over many seeded random instances, and renders
the result as CSV. Everything is deterministic: instance seeds derive from
a stable 64-bit hash of (seed, n, density, run), so identical configs give
byte-identical output.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import ceil, comb, sqrt
from math import log as _log
from typing import Iterable, Sequence

from .errors import DomainError, InfeasibleError
from .frames import frame
from .hypergraph import MIN_ARITY, Hypergraph, _component_roots, _integer, _sequence

log = logging.getLogger(__name__)

DENSITY_MODES = ("edges-per-vertex", "avg-degree")

_REJECTION_RETRIES = 64


def stable_seed(*parts) -> int:
    """Platform-independent 64-bit seed from a tuple of printable parts.

    Fractions are folded in as ``p/q`` so equal densities hash equally
    however they were written.
    """
    text = ":".join(
        f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else repr(p)
        for p in parts
    )
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sample_simple_edges(
    rng: random.Random, n: int, m: int, ell: int, start: Iterable[tuple[int, ...]] = ()
) -> set[tuple[int, ...]]:
    """``start`` topped up with random simple edges until ``m`` are distinct.

    Each draw equals ``tuple(sorted(Random.sample(range(n), ell)))``: that
    call when ``n`` is at most ``sample``'s set-size threshold. Above it,
    ``sample`` redraws chosen values, inlined here to skip its per-call
    overhead: the same ``getrandbits`` calls in the same order, so the
    edges and the RNG state afterwards match CPython's ``sample``. At
    ``ell == 3`` (the sweep's arity) those draws are written out as
    ``a``, ``b``, ``c`` and three comparisons pick the sorted tuple, with
    no per-edge list, sort or ``tuple`` call.
    """
    getrandbits = rng.getrandbits
    edges = set(start)
    add = edges.add
    setsize = 21
    if ell > 5:
        setsize += 4 ** ceil(_log(ell * 3, 4))
    k = n.bit_length()
    if n <= setsize:
        while len(edges) < m:
            add(tuple(sorted(rng.sample(range(n), ell))))
    elif ell == 3:
        while len(edges) < m:
            a = getrandbits(k)
            while a >= n:
                a = getrandbits(k)
            b = getrandbits(k)
            while b >= n or b == a:
                b = getrandbits(k)
            c = getrandbits(k)
            while c >= n or c == a or c == b:
                c = getrandbits(k)
            if a < b:
                add((a, b, c) if b < c else (a, c, b) if a < c else (c, a, b))
            else:
                add((b, a, c) if a < c else (b, c, a) if b < c else (c, b, a))
    else:
        picks = range(ell)
        while len(edges) < m:
            edge = []
            for _ in picks:
                j = getrandbits(k)
                while j >= n or j in edge:
                    j = getrandbits(k)
                edge.append(j)
            edge.sort()
            add(tuple(edge))
    return edges


def random_hypergraph(n: int, m: int, ell: int, seed: int) -> Hypergraph:
    """Connected uniform hypergraph with exactly ``m`` edges, sampled
    uniformly from simple edges (no repeated vertex inside an edge).

    Connectivity is enforced by rejection sampling with a bounded retry
    budget; if every draw comes out disconnected, the instance falls back
    to a randomly chained spanning skeleton whose bridge edges count
    toward ``m``. Deterministic per (n, m, ell, seed).
    """
    _integer("arity", ell, MIN_ARITY)
    _integer("seed", seed)
    if _integer("n", n) < ell:
        raise InfeasibleError(f"need at least {ell} vertices, got {n}")
    if _integer("m", m) < 1:
        raise InfeasibleError("need at least one edge")
    bridges_needed = -((n - 1) // -(ell - 1))  # ceil
    if m < bridges_needed:
        raise InfeasibleError(
            f"{m} edges cannot connect {n} vertices at arity {ell}"
        )
    if m > comb(n, ell):
        raise InfeasibleError(
            f"{m} distinct simple edges do not exist on {n} vertices"
        )
    rng = random.Random(stable_seed("hypergraph", n, m, ell, seed))
    for _ in range(_REJECTION_RETRIES):
        edges = _sample_simple_edges(rng, n, m, ell)
        # An uncovered vertex is a component of its own: reject before
        # the union-find.
        if len(set().union(*edges)) == n and len(set(_component_roots(n, edges))) == 1:
            break
    else:
        edges = _chained_instance(rng, n, m, ell)
        log.info(
            "rejection budget exhausted for n=%d m=%d ell=%d seed=%d; "
            "fell back to chained bridges",
            n, m, ell, seed,
        )
    # the edges are already sorted, distinct tuples: no need for build's canonicalization
    return Hypergraph(ell, tuple(f"x{i}" for i in range(n)), tuple(sorted(edges)))


def _chained_instance(
    rng: random.Random, n: int, m: int, ell: int
) -> set[tuple[int, ...]]:
    """Spanning chain of bridge edges over a shuffled vertex order, topped
    up with random simple edges to reach exactly ``m``."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, ...]] = set()
    covered = order[: 1]
    i = 1
    while i < n:
        fresh = order[i : i + ell - 1]
        i += len(fresh)
        base = rng.sample(covered, ell - len(fresh))
        edges.add(tuple(sorted(base + fresh)))
        covered.extend(fresh)
    return _sample_simple_edges(rng, n, m, ell, edges)


def reduction_proportion(h: Hypergraph) -> Fraction:
    """Frame edge count over input edge count, exact, in (0, 1]. Equals 1
    exactly on stable inputs. Raises DisconnectedError, through
    :func:`frame`, on disconnected input."""
    if h.n_edges == 0:
        raise DomainError("reduction proportion is undefined without edges")
    return Fraction(frame(h).frame.n_edges, h.n_edges)


@dataclass(frozen=True)
class SweepConfig:
    vertex_counts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    runs_per_cell: int
    seed: int
    ell: int = 3
    density_mode: str = "edges-per-vertex"

    def __post_init__(self) -> None:
        """The vertex counts and densities, read by :func:`_sequence`, must
        not be empty; an ``int`` density becomes a ``Fraction``, so equal
        densities seed equally. A count, seed, arity or density of another
        type (a ``float`` is a binary fraction) is refused, as is an arity < 3."""
        for field, kind in (("vertex_counts", "ints"), ("densities", "ints or Fractions")):
            object.__setattr__(self, field, _sequence(field, getattr(self, field), kind))
            if not getattr(self, field):
                raise DomainError(f"{field} must not be empty")
        counts = [("vertex_counts entry", n) for n in self.vertex_counts]
        for field, v in counts + [("runs_per_cell", self.runs_per_cell), ("seed", self.seed)]:
            _integer(field, v)
        _integer("ell", self.ell, MIN_ARITY)
        for d in self.densities:
            if isinstance(d, bool) or not isinstance(d, (int, Fraction)):
                kind = type(d).__name__
                raise DomainError(f"densities entry {d!r} has type {kind}; expected int or Fraction")
        object.__setattr__(self, "densities", tuple(map(Fraction, self.densities)))
        if any(n <= 0 for n in self.vertex_counts):
            raise DomainError("vertex counts must be positive")
        if any(d <= 0 for d in self.densities):
            raise DomainError("densities must be positive")
        for d in self.densities:
            try:
                float(d)
            except OverflowError:
                raise DomainError(
                    f"density {Decimal(d.numerator) / d.denominator:.6g} is too large: "
                    "the CSV renders densities as floats"
                ) from None
        if self.runs_per_cell < 1:
            raise DomainError("runs per cell must be >= 1")
        if self.density_mode not in DENSITY_MODES:
            raise DomainError(f"density mode must be one of {DENSITY_MODES}")

    def edge_count(self, n: int, density: Fraction) -> int:
        """Edges per cell: density*n edges, or density*n/ell when the
        density counts average vertex degree."""
        if self.density_mode == "avg-degree":
            return round(density * n / self.ell)
        return round(density * n)


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    density: Fraction
    mean_reduction_proportion: Fraction | None
    variance: Fraction | None
    runs: int
    error: str | None = None

    def __post_init__(self) -> None:
        mean = self.mean_reduction_proportion
        if mean is not None and not 0 <= mean <= 1:
            raise DomainError("mean reduction proportion out of [0, 1]")

    @property
    def stddev(self) -> float | None:
        """Square root of the exactly computed population variance; the
        one reporting-only statistic that leaves rational arithmetic."""
        if self.variance is None:
            return None
        return sqrt(float(self.variance))


def run_cell(cfg: SweepConfig, n: int, density: Fraction) -> SweepRow:
    m = cfg.edge_count(n, density)
    try:
        props = []
        for run in range(cfg.runs_per_cell):
            seed = stable_seed(cfg.seed, n, density, run)
            h = random_hypergraph(n, m, cfg.ell, seed)
            props.append(reduction_proportion(h))
    except InfeasibleError as exc:
        return SweepRow(n, m, density, None, None, 0, error=str(exc))
    runs = len(props)
    mean = sum(props, Fraction(0)) / runs
    variance = sum(((p - mean) ** 2 for p in props), Fraction(0)) / runs
    return SweepRow(n, m, density, mean, variance, runs)


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (n, density) cell, sizes outer, densities inner.
    Infeasible cells produce an error row and the sweep continues."""
    return [run_cell(cfg, n, d) for n in cfg.vertex_counts for d in cfg.densities]


CSV_HEADER = "n,m,density,runs,mean_reduction,stddev"


def _decimal(value: Fraction) -> str:
    return f"{float(value):.6f}"


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV rendering; rationals become 6-digit decimals. The standard
    deviation is the square root of the exactly computed variance,
    evaluated only at this rendering step."""
    lines = [CSV_HEADER]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.n},{row.m},{_decimal(row.density)},0,,")
            continue
        lines.append(
            f"{row.n},{row.m},{_decimal(row.density)},{row.runs},"
            f"{_decimal(row.mean_reduction_proportion)},{row.stddev:.6f}"
        )
    return "\n".join(lines) + "\n"
