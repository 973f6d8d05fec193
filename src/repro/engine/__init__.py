"""Execution engine: joins, view materialization, reference evaluation."""

from repro.engine.evaluator import evaluate_query_naive, evaluate_to_dict
from repro.engine.join import fold_join, join_children
from repro.engine.materialize import (
    materialize_indicator_triple,
    materialize_plan,
    materialize_tree,
    total_view_size,
)

__all__ = [
    "evaluate_query_naive",
    "evaluate_to_dict",
    "fold_join",
    "join_children",
    "materialize_indicator_triple",
    "materialize_plan",
    "materialize_tree",
    "total_view_size",
]
