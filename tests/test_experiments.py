import hashlib
import logging
import random
import re
from fractions import Fraction
from math import comb

import pytest

from hypersig import (
    DisconnectedError,
    DomainError,
    Hypergraph,
    InfeasibleError,
    SweepConfig,
    SweepRow,
    dumps_hypergraph,
    is_connected,
    random_hypergraph,
    reduction_proportion,
    rows_to_csv,
    run_sweep,
    stable_seed,
)
from hypersig.experiments import _sample_simple_edges, run_cell


def test_random_hypergraph_contract():
    h = random_hypergraph(5, 3, 3, seed=11)
    assert is_connected(h)
    assert h.n_edges == 3
    assert h.n_vertices == 5
    assert all(len(set(e)) == 3 for e in h.edges)


def test_random_hypergraph_deterministic():
    a = random_hypergraph(12, 9, 3, seed=7)
    b = random_hypergraph(12, 9, 3, seed=7)
    assert a == b
    c = random_hypergraph(12, 9, 3, seed=8)
    assert a != c


def test_random_hypergraph_bridging_fallback():
    # 10 edges on 21 vertices is exactly the spanning budget: uniform draws
    # are essentially never connected, so the chained fallback must engage
    h = random_hypergraph(21, 10, 3, seed=1)
    assert is_connected(h)
    assert h.n_edges == 10


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_sampler_draws_exactly_as_random_sample(ell):
    # random.sample keeps a pool list up to n = 21 (n = 85 at ell 6-7) and
    # a set of chosen values above; both sides of both thresholds
    cases = [
        (n, min(comb(n, ell), 1 + 4 * seed), seed)
        for n in [*range(ell, 31), 50, 84, 85, 86, 300]
        for seed in range(3)
    ]
    if ell == 3:  # sweep-sized m: duplicate edges get redrawn, every order gets sorted;
        # at (50, 100) most draws cover every vertex, some vertex only as a third pick
        sizes = ((50, 38), (50, 50), (300, 300), (50, 100))
        cases += [(n, m, seed) for n, m in sizes for seed in range(3)]
    # the coverage flag marked while drawing is the union's, with and without start
    covers = set()
    for n, m, seed in cases:
        start = {tuple(range(ell))} if seed == 2 else set()
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = set(start)
        while len(expected) < m:
            expected.add(tuple(sorted(theirs.sample(range(n), ell))))
        edges, covered = _sample_simple_edges(ours, n, m, ell, start)
        assert edges == expected, (n, m, seed)
        assert covered == (set().union(*expected) == set(range(n))), (n, m, seed)
        assert ours.getstate() == theirs.getstate(), (n, m, seed)
        covers.add((covered, bool(start)))
    assert covers == {(False, False), (False, True), (True, False), (True, True)}


def test_random_hypergraph_draws_are_pinned_at_ell_6():
    # digest of these instances as random.sample drew them; 12 of the 24
    # exhaust the rejection budget and take the chained fallback
    digest = hashlib.sha256()
    for n in (7, 20, 40, 85, 86, 120):
        for m in (-((n - 1) // -5), n // 2 + 1):
            for seed in range(2):
                h = random_hypergraph(n, m, 6, seed)
                digest.update(dumps_hypergraph(h).encode())
    assert digest.hexdigest() == (
        "c7ec625d1328c4c2323071082e3b96e99c2085d23bc5e22b6a70b6bc782e910a"
    )


def test_random_hypergraph_draws_are_pinned_at_ell_3(caplog):
    # digest of these instances as random.sample drew them: n = 22 is the
    # first n above sample's pool threshold, m is near-discrete (average
    # degree 2.6) or m = n; 6 of the 16 take the chained fallback
    digest = hashlib.sha256()
    with caplog.at_level(logging.INFO, logger="hypersig.experiments"):
        for n in (22, 50, 60, 200):
            for m in (round(2.6 * n / 3), n):
                for seed in range(2):
                    h = random_hypergraph(n, m, 3, seed)
                    digest.update(dumps_hypergraph(h).encode())
    assert sum("fell back" in r.getMessage() for r in caplog.records) == 6
    assert digest.hexdigest() == (
        "b90cdba3803f30f37137146eeebdee4cef9c76eb151ef66b36010720d1871539"
    )


@pytest.mark.parametrize(
    "n,m,ell",
    [(5, 0, 3), (2, 1, 3), (9, 2, 3), (4, 5, 3)],
)
def test_random_hypergraph_infeasible(n, m, ell):
    with pytest.raises(InfeasibleError):
        random_hypergraph(n, m, ell, seed=0)


def test_random_hypergraph_rejects_arity_two():
    with pytest.raises(DomainError, match="^arity must be >= 3, got 2$"):
        random_hypergraph(5, 2, 2, seed=0)


@pytest.mark.parametrize("seed", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_random_hypergraph_refuses_a_seed_that_is_no_int(seed):
    """``stable_seed`` folds a seed in by its ``repr``, so ``1.0`` or
    ``True`` would draw another instance than ``1`` does."""
    message = f"seed {seed!r} has type {type(seed).__name__}; expected int"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        random_hypergraph(10, 5, 3, seed)


def test_reduction_proportion_examples(triangle, fan_five, folding_free_six):
    assert reduction_proportion(triangle) == 1
    assert reduction_proportion(fan_five) == Fraction(1, 3)
    assert reduction_proportion(folding_free_six) == Fraction(1, 4)


def test_reduction_proportion_errors():
    with pytest.raises(DomainError):
        reduction_proportion(Hypergraph.build(3, ["a"]))
    with pytest.raises(DisconnectedError):
        reduction_proportion(
            Hypergraph.build(3, list("abcdef"), [(0, 1, 2), (3, 4, 5)])
        )


def test_stable_seed_is_stable():
    assert stable_seed(1, 2, Fraction(23, 10), 0) == stable_seed(1, 2, Fraction("2.3"), 0)
    assert stable_seed("a") != stable_seed("b")
    assert 0 <= stable_seed(0) < 2**64


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig((), (Fraction(1),), 1, 0)
    with pytest.raises(DomainError):
        SweepConfig((5,), (Fraction(-1),), 1, 0)
    with pytest.raises(DomainError):
        SweepConfig((5,), (Fraction(1),), 0, 0)
    with pytest.raises(DomainError):
        SweepConfig((5,), (Fraction(1),), 1, 0, density_mode="nope")


def test_int_and_fraction_densities_give_the_same_sweep():
    """An ``int`` density is the ``Fraction`` it equals, so it seeds the
    same instances."""
    rows = [run_sweep(SweepConfig((30,), (d,), 3, 0)) for d in (1, Fraction(1))]
    assert rows_to_csv(rows[0]) == rows_to_csv(rows[1])
    assert type(rows[0][0].density) is Fraction


class Count(int):
    """An int subclass, refused where an int is asked for."""


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("densities", (0.1,), "densities entry 0.1 has type float; expected int or Fraction"),
        ("densities", (True,), "densities entry True has type bool; expected int or Fraction"),
        ("densities", ("1",), "densities entry '1' has type str; expected int or Fraction"),
        ("vertex_counts", (30, 3.0), "vertex_counts entry 3.0 has type float; expected int"),
        ("runs_per_cell", 1.5, "runs_per_cell 1.5 has type float; expected int"),
        ("ell", 3.0, "ell 3.0 has type float; expected int"),
        ("seed", 1.0, "seed 1.0 has type float; expected int"),
        ("seed", True, "seed True has type bool; expected int"),
        ("runs_per_cell", Count(3), "runs_per_cell 3 has type Count; expected int"),
        ("vertex_counts", None, "vertex_counts must be a sequence of ints, got NoneType"),
        ("densities", None, "densities must be a sequence of ints or Fractions, got NoneType"),
        ("densities", 1, "densities must be a sequence of ints or Fractions, got int"),
    ],
    ids=[
        "float-density", "bool-density", "str-density", "float-count", "float-runs", "float-ell",
        "float-seed", "bool-seed", "int-subclass-runs", "no-count-sequence",
        "no-density-sequence", "int-densities",
    ],
)
def test_sweep_config_refuses_a_value_of_the_wrong_type(field, value, message):
    """A float would enter a density as its binary fraction, as a count
    end in a bare ``TypeError`` from ``range``, and as a seed hash to
    other instances than the int it equals; the message names the field,
    the value and its type. An int subclass is refused too, as
    ``Hypergraph`` refuses it."""
    fields = {"vertex_counts": (30,), "densities": (1,), "runs_per_cell": 3, "seed": 0}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SweepConfig(**{**fields, field: value})


def test_sweep_config_rejects_density_beyond_float_range():
    with pytest.raises(DomainError, match=r"density 1\.00000e\+400 is too large"):
        SweepConfig((8,), (Fraction(1), Fraction(10) ** 400), 1, 0)
    # the largest finite float still renders: an infeasible row, not a crash
    cfg = SweepConfig((8,), (Fraction(10) ** 308,), 1, 0)
    assert rows_to_csv(run_sweep(cfg)).splitlines()[1].endswith(",0,,")


def test_edge_count_modes():
    cfg = SweepConfig((9,), (Fraction(3),), 1, 0)
    assert cfg.edge_count(9, Fraction(3)) == 27
    cfg = SweepConfig((9,), (Fraction(3),), 1, 0, density_mode="avg-degree")
    assert cfg.edge_count(9, Fraction(3)) == 9


def test_run_sweep_deterministic_and_ordered():
    cfg = SweepConfig(
        vertex_counts=(8, 10),
        densities=(Fraction(1), Fraction("1.5")),
        runs_per_cell=3,
        seed=5,
    )
    rows = run_sweep(cfg)
    assert [(r.n, r.density) for r in rows] == [
        (8, 1), (8, Fraction(3, 2)), (10, 1), (10, Fraction(3, 2)),
    ]
    assert all(0 <= r.mean_reduction_proportion <= 1 for r in rows)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(cfg))


def test_infeasible_cell_reported_and_sweep_continues():
    cfg = SweepConfig(
        vertex_counts=(12,),
        densities=(Fraction(1, 10), Fraction(1)),
        runs_per_cell=2,
        seed=5,
    )
    rows = run_sweep(cfg)
    assert rows[0].error is not None and rows[0].runs == 0 and rows[0].stddev is None
    assert rows[1].error is None and rows[1].runs == 2
    csv = rows_to_csv(rows)
    assert csv.splitlines()[1].endswith(",0,,")


@pytest.mark.parametrize("mean", [Fraction(-1, 2), Fraction(3, 2)], ids=str)
def test_sweep_row_rejects_mean_out_of_range(mean):
    with pytest.raises(DomainError, match=r"^mean reduction proportion out of \[0, 1\]$"):
        SweepRow(6, 6, Fraction(1), mean, Fraction(0), 2)


def test_csv_format():
    cfg = SweepConfig((6,), (Fraction(1),), 2, 1)
    row = run_cell(cfg, 6, Fraction(1))
    csv = rows_to_csv([row])
    header, line = csv.splitlines()
    assert header == "n,m,density,runs,mean_reduction,stddev"
    fields = line.split(",")
    assert fields[0] == "6" and fields[1] == "6" and fields[3] == "2"
    assert fields[2] == "1.000000"
    assert len(fields[4].split(".")[1]) == 6
    assert len(fields[5].split(".")[1]) == 6


def test_sweep_grid_emits_one_row_per_cell():
    cfg = SweepConfig(
        vertex_counts=(50, 100, 150, 200),
        densities=tuple(Fraction(k, 10) for k in range(23, 31)),
        runs_per_cell=1,
        seed=2,
    )
    rows = run_sweep(cfg)
    assert len(rows) == 32
    assert all(r.error is None for r in rows)
    assert len(rows_to_csv(rows).splitlines()) == 33


def test_mean_is_exact_rational():
    cfg = SweepConfig((7,), (Fraction(1),), 3, 9)
    row = run_cell(cfg, 7, Fraction(1))
    assert isinstance(row.mean_reduction_proportion, Fraction)
    assert isinstance(row.variance, Fraction)
    assert row.stddev >= 0.0
