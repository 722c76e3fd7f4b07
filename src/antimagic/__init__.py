"""Antimagic edge labelings of generalized edge corona graphs.

Build coronas over pan and spider bases, label them constructively, check
the constructions' hypotheses, and certify results with an independent
verifier and a brute-force oracle.
"""

from .conditions import Condition, ConditionReport, check_conditions
from .corona import (
    Block,
    CoronaInstance,
    build_type1,
    build_type2,
    normalize_attachments,
)
from .graphs import (
    DegreeProfile,
    Graph,
    Labeling,
    degree_profile,
    is_connected,
    make_graph,
    preset_graph,
)
from .labeling import (
    ChainCheck,
    LabelingRun,
    RankedBlock,
    rank_by_partial_sums,
    run_type1,
    run_type2,
    universal_vertex_labeling,
)
from .verify import (
    SearchOutcome,
    Status,
    SumReport,
    brute_force_search,
    random_search,
    vertex_sums,
)

__all__ = [
    "Block",
    "ChainCheck",
    "Condition",
    "ConditionReport",
    "CoronaInstance",
    "DegreeProfile",
    "Graph",
    "Labeling",
    "LabelingRun",
    "RankedBlock",
    "SearchOutcome",
    "Status",
    "SumReport",
    "brute_force_search",
    "build_type1",
    "build_type2",
    "check_conditions",
    "degree_profile",
    "is_connected",
    "make_graph",
    "normalize_attachments",
    "preset_graph",
    "random_search",
    "rank_by_partial_sums",
    "run_type1",
    "run_type2",
    "universal_vertex_labeling",
    "vertex_sums",
]
