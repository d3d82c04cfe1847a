"""Exact small-scale Ramsey-type searches with machine-checkable certificates.

Graphs and edge colourings on up to 64 vertices live in single machine words;
exact branch-and-bound solvers settle clique/independent-set questions,
greedy extraction produces logarithmic-size witnesses with replayable traces,
and exhaustive scans over all instances of a given size certify thresholds
for pair sums, monochromatic families, class scores, and arithmetic
progressions in interval colourings.
"""

__version__ = "0.1.0"

from .certificates import (SearchCertificate, SearchResult, UndecidedError,
                           canonical_json, revalidate)
from .exact import (BoundSet, CheckOutcome, WitnessFamily, WitnessPair,
                    bound_formulas, check_universal, clique_indep_pair,
                    clique_number, family_sum_bound, family_sum_value,
                    independence_number, max_clique, max_independent_set,
                    mono_clique_family, multicolor_ramsey_bound,
                    pair_sum_bound, pair_sum_bruteforce, pair_sum_value,
                    search_threshold, two_color_ramsey_bound)
from .graphs import (BudgetError, EdgeColoring, Graph, Graph6ParseError,
                     bits, labeled_graph_count, mask_of, pair_count,
                     parse_graph6, write_graph6)
from .greedy import (GreedyStep, GreedyTrace, disjoint_guarantee_floor,
                     family_guarantee_floor, greedy_family,
                     greedy_pair_disjoint, greedy_pair_overlap,
                     overlap_guarantee_floor, pair_guarantee_sweep,
                     pick_highest_degree, pick_lowest, replay_family_trace,
                     replay_pair_trace, seeded_pick)
from .scores import (ScoreKind, ScoreProfile, score_color_class, score_sum,
                     search_threshold_score)
from .vdw import (IntervalColoring, ap_sum, ap_sum_threshold, classical_ap_check,
                  longest_mono_ap)


def __getattr__(name: str):  # check and search load the engine on first use
    if name in ("check", "search"):
        from . import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "BoundSet", "BudgetError", "CheckOutcome", "EdgeColoring", "Graph",
    "Graph6ParseError", "GreedyStep", "GreedyTrace", "IntervalColoring",
    "ScoreKind", "ScoreProfile", "SearchCertificate", "SearchResult",
    "UndecidedError", "WitnessFamily", "WitnessPair",
    "ap_sum", "ap_sum_threshold", "bits", "bound_formulas",
    "canonical_json", "check", "check_universal", "classical_ap_check",
    "clique_indep_pair",
    "clique_number", "disjoint_guarantee_floor", "family_guarantee_floor",
    "family_sum_bound", "family_sum_value", "greedy_family", "greedy_pair_disjoint",
    "greedy_pair_overlap", "independence_number", "labeled_graph_count",
    "longest_mono_ap", "mask_of", "max_clique", "max_independent_set",
    "mono_clique_family", "multicolor_ramsey_bound", "overlap_guarantee_floor",
    "pair_count", "pair_guarantee_sweep", "pair_sum_bound",
    "pair_sum_bruteforce", "pair_sum_value", "parse_graph6",
    "pick_highest_degree", "pick_lowest", "replay_family_trace",
    "replay_pair_trace", "revalidate", "score_color_class", "score_sum", "search",
    "search_threshold", "search_threshold_score", "seeded_pick",
    "two_color_ramsey_bound", "write_graph6",
]
