"""Exact independence numbers, bounds, and witnesses for generalized
Petersen graphs P(n,k)."""

from .bounds import BoundReport, BoundValue, best_bounds, exact_closed_form, lower_bounds, upper_bounds
from .errors import BudgetExceededError, ConsistencyError, DomainError, InternalError
from .graph import (
    AdjacencyGraph,
    GeneralizedPetersen,
    SegmentClass,
    SegmentKind,
    adjacency,
    classify_segment,
    is_independent,
    petersen_graph,
    segment_subgraph,
    segment_vertices,
)
from .solver import (
    ExactResult,
    K_DP_DEFAULT,
    alpha,
    alpha_branch_reduce,
    alpha_oracle,
    alpha_window_dp,
    maximum_independent_sets,
)

__all__ = [
    "AdjacencyGraph",
    "BoundReport",
    "BoundValue",
    "BudgetExceededError",
    "ConsistencyError",
    "DomainError",
    "ExactResult",
    "GeneralizedPetersen",
    "InternalError",
    "K_DP_DEFAULT",
    "SegmentClass",
    "SegmentKind",
    "adjacency",
    "alpha",
    "alpha_branch_reduce",
    "alpha_oracle",
    "alpha_window_dp",
    "best_bounds",
    "classify_segment",
    "exact_closed_form",
    "is_independent",
    "lower_bounds",
    "maximum_independent_sets",
    "petersen_graph",
    "segment_subgraph",
    "segment_vertices",
    "upper_bounds",
]

__version__ = "0.1.0"
