"""Exact small-scale Ramsey-type searches with machine-checkable certificates.

Graphs and edge colourings on up to 64 vertices live in single machine words;
exact branch-and-bound solvers settle clique/independent-set questions,
greedy extraction produces logarithmic-size witnesses with replayable traces,
and exhaustive scans over all instances of a given size certify thresholds
for pair sums, monochromatic families, class scores, and arithmetic
progressions in interval colourings.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name under the submodule that defines it.  A name imports its
# submodule on first use (PEP 562), so a cold start loads only what its query
# needs; ``__all__`` and ``dir()`` come from the same table.
_EXPORTS = {
    "certificates": "SearchCertificate SearchResult UndecidedError canonical_json revalidate",
    "engine": "check search",
    "exact": "BoundSet CheckOutcome WitnessFamily WitnessPair bound_formulas check_universal"
             " clique_indep_pair clique_number family_sum_bound family_sum_value"
             " independence_number max_clique max_independent_set mono_clique_family"
             " multicolor_ramsey_bound pair_sum_bound pair_sum_bruteforce pair_sum_value"
             " search_threshold two_color_ramsey_bound",
    "graphs": "BudgetError EdgeColoring Graph Graph6ParseError bits labeled_graph_count"
              " mask_of pair_count parse_graph6 write_graph6",
    "greedy": "GreedyStep GreedyTrace disjoint_guarantee_floor family_guarantee_floor"
              " greedy_family greedy_pair_disjoint greedy_pair_overlap overlap_guarantee_floor"
              " pair_guarantee_sweep pick_highest_degree pick_lowest replay_family_trace"
              " replay_pair_trace seeded_pick",
    "scores": "ScoreKind ScoreProfile score_color_class score_sum search_threshold_score",
    "vdw": "IntervalColoring ap_sum ap_sum_threshold classical_ap_check longest_mono_ap",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
