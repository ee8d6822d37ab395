"""Planted random-graph colorings, greedy recoloring walks, and exhaustive
solution-space oracles."""

from .coloring import (Coloring, Move, Trace, TraceFailure, apply_trace,
                       coloring_of, colors_used, hamming, is_proper,
                       verify_trace)
from .errors import (CapError, ColorwalkError, FormatError, FreshColorError,
                     InfeasibleError, InternalInvariantError, PaletteError)
from .graphs import (Graph, Partition, PlantedInstance,
                     balanced_partition, build_graph, count_edges_within,
                     degeneracy_order, gen_gnm, gen_gnp, gen_planted,
                     gen_planted_m, gen_planted_p, greedy_mis,
                     induced_subgraph, partition_from_class_of,
                     random_partition)
from .greedy import (DerivedParams, GreedyReport, derive_params,
                     run_greedy_recolor, simulate_recurrence)
from .residual import degeneracy_recolor_greedy
from .transform import (classes_from_coloring, connect_pair, reverse_trace,
                        transform_to_target, transform_with_report)

__version__ = "0.1.0"

# served on first use (PEP 562), so that importing the package, and the CLI
# with it, does not load the oracle
_ORACLE_NAMES = ("HqGraph", "build_hq", "certify_trace", "enumerate_colorings",
                 "enumerate_hq", "giant_fraction", "sample_uniform_coloring")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Coloring", "Move", "Trace", "TraceFailure", "apply_trace", "coloring_of",
    "colors_used", "hamming", "is_proper", "verify_trace",
    "CapError", "ColorwalkError", "FormatError", "FreshColorError",
    "InfeasibleError", "InternalInvariantError", "PaletteError",
    "Graph", "Partition", "PlantedInstance",
    "balanced_partition", "build_graph", "count_edges_within",
    "degeneracy_order", "gen_gnm", "gen_gnp", "gen_planted", "gen_planted_m",
    "gen_planted_p", "greedy_mis", "induced_subgraph",
    "partition_from_class_of", "random_partition",
    "DerivedParams", "GreedyReport", "derive_params", "run_greedy_recolor",
    "simulate_recurrence",
    *_ORACLE_NAMES,
    "degeneracy_recolor_greedy",
    "classes_from_coloring", "connect_pair", "reverse_trace",
    "transform_to_target", "transform_with_report",
]
