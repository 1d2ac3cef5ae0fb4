"""Exact linear signal invariants, fusion relations and frame quotients of
uniform hypergraphs, over arbitrary-precision rational arithmetic."""

from .errors import (
    DisconnectedError,
    DomainError,
    FormatError,
    HypersigError,
    InfeasibleError,
    NotEngagedError,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    random_hypergraph,
    reduction_proportion,
    rows_to_csv,
    run_sweep,
    stable_seed,
)
from .frames import (
    FrameResult,
    attach_simplex,
    fan,
    fold_pairs,
    frame,
    fusion,
    is_stable,
    mountain_range,
)
from .hypergraph import (
    Hypergraph,
    Partition,
    arrangements,
    components,
    dumps_hypergraph,
    hypergraph_from_json,
    is_connected,
    load_hypergraph,
    quotient,
    save_hypergraph,
)
from .signals import (
    LinearMap,
    Signal,
    centroid_map,
    component_count_via_C,
    constant_space,
    embed_to_universal,
    find_violation,
    generating_signal,
    is_engaged,
    linear_map_from_json,
    load_linear_map,
    load_signal,
    save_signal,
    signal_from_json,
    signal_space,
    universal_map,
    verify_signal,
)

__version__ = "0.1.0"
