"""Core contribution: co-scheduling with processor redistribution."""

from .coloring import (
    bipartite_edge_coloring,
    complete_bipartite_coloring,
    transfer_schedule,
    validate_coloring,
)
from .heuristics import (
    CompletionHeuristic,
    EndGreedy,
    EndLocal,
    FailureHeuristic,
    IteratedGreedy,
    ShortestTasksFirst,
    greedy_rebuild,
)
from .kernels import DecisionCache, DecisionMatrix
from .optimal import expected_makespan, optimal_schedule
from .policy import PAPER_POLICY_LABELS, POLICIES, Policy, get_policy
from .progress import (
    checkpointed_work_fraction,
    elapsed_work_fraction,
    projected_finish,
    remaining_after_elapsed,
    remaining_after_failure,
)
from .redistribution import (
    redistribution_cost,
    redistribution_cost_matrix,
    redistribution_cost_vector,
    redistribution_rounds,
    transfer_volume_per_round,
)
from .state import TaskRuntime

__all__ = [
    "bipartite_edge_coloring",
    "complete_bipartite_coloring",
    "transfer_schedule",
    "validate_coloring",
    "CompletionHeuristic",
    "EndGreedy",
    "EndLocal",
    "FailureHeuristic",
    "IteratedGreedy",
    "ShortestTasksFirst",
    "greedy_rebuild",
    "DecisionCache",
    "DecisionMatrix",
    "expected_makespan",
    "optimal_schedule",
    "PAPER_POLICY_LABELS",
    "POLICIES",
    "Policy",
    "get_policy",
    "checkpointed_work_fraction",
    "elapsed_work_fraction",
    "projected_finish",
    "remaining_after_elapsed",
    "remaining_after_failure",
    "redistribution_cost",
    "redistribution_cost_matrix",
    "redistribution_cost_vector",
    "redistribution_rounds",
    "transfer_volume_per_round",
    "TaskRuntime",
]
