"""The public names of ``hypersig``, pinned: the import block of its
``__init__.py`` is the list, so adding or removing a name there is a
deliberate edit of this test too."""

import inspect

import hypersig

PUBLIC = {
    # errors
    "DisconnectedError", "DomainError", "FormatError", "HypersigError", "InfeasibleError",
    "NotEngagedError",
    # experiments
    "SweepConfig", "SweepRow", "random_hypergraph", "reduction_proportion", "rows_to_csv",
    "run_sweep", "stable_seed",
    # frames
    "FrameResult", "attach_simplex", "fan", "fold_pairs", "frame", "fusion", "is_stable",
    "mountain_range",
    # hypergraph
    "Hypergraph", "Partition", "arrangements", "components", "dumps_hypergraph",
    "hypergraph_from_json", "is_connected", "load_hypergraph", "quotient", "save_hypergraph",
    # signals
    "LinearMap", "Signal", "centroid_map", "component_count_via_C", "constant_space",
    "embed_to_universal", "find_violation", "generating_signal", "is_engaged",
    "linear_map_from_json", "load_linear_map", "load_signal", "save_signal", "signal_from_json",
    "signal_space", "universal_map", "verify_signal",
}


def test_public_names_are_the_pinned_list():
    names = {
        n for n, v in vars(hypersig).items() if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert sorted(names - PUBLIC) == [] and sorted(PUBLIC - names) == []
