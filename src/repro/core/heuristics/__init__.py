"""The paper's redistribution heuristics (Section 5)."""

from .base import (
    CompletionHeuristic,
    FailureHeuristic,
    apply_move,
    faulty_stall,
)
from .end_local import EndLocal
from .iterated_greedy import EndGreedy, IteratedGreedy, greedy_rebuild
from .stf import ShortestTasksFirst

__all__ = [
    "CompletionHeuristic",
    "FailureHeuristic",
    "apply_move",
    "faulty_stall",
    "EndLocal",
    "EndGreedy",
    "IteratedGreedy",
    "greedy_rebuild",
    "ShortestTasksFirst",
]
