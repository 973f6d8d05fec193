"""Execution engine: joins, view materialization, reference evaluation."""

from repro.engine.evaluator import evaluate_query_naive, evaluate_to_dict
from repro.engine.join import (
    BoundRelation,
    delta_join,
    fold_join,
    join_children,
    join_to_relation,
)
from repro.engine.materialize import (
    bound,
    materialize_indicator_triple,
    materialize_plan,
    materialize_tree,
    total_view_size,
)

__all__ = [
    "BoundRelation",
    "bound",
    "delta_join",
    "evaluate_query_naive",
    "evaluate_to_dict",
    "fold_join",
    "join_children",
    "join_to_relation",
    "materialize_indicator_triple",
    "materialize_plan",
    "materialize_tree",
    "total_view_size",
]
