"""Query planning: validation, variable orders, widths, skew-aware plans.

The planner is the glue between the query layer and the execution layers.
It validates that a query is inside the supported fragment, builds the
canonical variable order, computes the width measures that parameterise the
cost statements of Theorems 2 and 4, and hands a :class:`SkewAwarePlan` to
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.data.database import Database
from repro.engine.evaluator import validate_database
from repro.exceptions import UnsupportedQueryError
from repro.query.classes import QueryClassification, classify
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.vo.free_top import free_top_order
from repro.vo.variable_order import VariableOrder, build_canonical_variable_order
from repro.views.build import DYNAMIC_MODE, STATIC_MODE
from repro.views.skew import SkewAwarePlan, build_skew_aware_plan
from repro.widths.dynamic_width import dynamic_width
from repro.widths.static_width import static_width


def coerce_query(query) -> ConjunctiveQuery:
    """Accept either a :class:`ConjunctiveQuery` or the textual notation."""
    if isinstance(query, ConjunctiveQuery):
        return query
    if isinstance(query, str):
        return parse_query(query)
    raise UnsupportedQueryError(
        f"expected a ConjunctiveQuery or a query string, got {type(query).__name__}"
    )


def validate_query(query: ConjunctiveQuery, mode: str) -> QueryClassification:
    """Check that the query is inside the supported fragment.

    Requirements (Section 1 and the paper's footnotes): the query must be
    hierarchical, must not repeat relation symbols, and every atom must have
    a non-empty schema.
    """
    if any(not atom.variables for atom in query.atoms):
        raise UnsupportedQueryError(
            "atoms with empty schemas are outside the supported fragment "
            "(paper footnote 1)"
        )
    if query.has_repeated_relation_symbols():
        raise UnsupportedQueryError(
            "queries with repeating relation symbols are not supported "
            "(paper footnote 2 handles them by sequences of updates)"
        )
    classification = classify(query)
    if not classification.hierarchical:
        raise UnsupportedQueryError(
            f"query {query} is not hierarchical (Definition 1); the IVM^ε "
            "trade-offs of this library only apply to hierarchical queries"
        )
    if mode not in (STATIC_MODE, DYNAMIC_MODE):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    return classification


def choose_shard_key(query) -> str:
    """Pick the shard-key variable for hash-partitioned execution.

    A variable can route every base tuple to a single shard only when it
    occurs in *every* atom: then any two joining tuples agree on its value,
    so joins — and therefore delta propagation and rebalancing — stay
    entirely shard-local.  For a connected hierarchical query such a
    variable always exists (the atom sets of a hierarchical query form a
    laminar family, so connectivity forces one variable's atom set to cover
    the whole body); for a disconnected query none can, and the sharded
    engine is rejected here rather than silently producing cross-shard
    joins.

    Among the candidates the planner prefers a *free* variable (result
    tuples then carry the shard key, so shards enumerate disjoint results
    and the k-way merge never has to sum multiplicities across shards) and
    breaks remaining ties by sorted order, keeping the choice deterministic.
    """
    cq = coerce_query(query)
    candidates = [
        v for v in sorted(cq.variables) if len(cq.atoms_of(v)) == len(cq.atoms)
    ]
    if not candidates:
        raise UnsupportedQueryError(
            f"query {cq} has no variable occurring in every atom (it is "
            "disconnected), so hash-partitioning cannot keep joins "
            "shard-local; shard each connected component separately instead"
        )
    for variable in candidates:
        if variable in cq.free_variables:
            return variable
    return candidates[0]


def is_shardable(query) -> bool:
    """True when :func:`choose_shard_key` accepts the query."""
    try:
        choose_shard_key(query)
    except UnsupportedQueryError:
        return False
    return True


@dataclass
class QueryPlan:
    """Everything derived from the query before touching the data."""

    query: ConjunctiveQuery
    mode: str
    classification: QueryClassification
    canonical_order: VariableOrder
    free_top: VariableOrder
    static_width: float
    dynamic_width: float

    def expected_exponents(self, epsilon: float) -> Dict[str, float]:
        """The asymptotic exponents promised by Theorems 2 and 4 for ``ε``.

        Returned as exponents of ``N``: preprocessing ``1 + (w−1)ε``,
        enumeration delay ``1 − ε``, amortized update ``δε`` (dynamic mode).
        """
        exponents = {
            "preprocessing": 1 + (self.static_width - 1) * epsilon,
            "delay": 1 - epsilon,
        }
        if self.mode == DYNAMIC_MODE:
            exponents["update"] = self.dynamic_width * epsilon
        return exponents

    def shard_key(self) -> str:
        """The planner-chosen shard-key variable (:func:`choose_shard_key`).

        Raises :class:`UnsupportedQueryError` when the query cannot be
        hash-partitioned (no variable occurs in every atom).
        """
        return choose_shard_key(self.query)

    def describe(self) -> str:
        lines = [
            f"query: {self.query}",
            f"classes: {', '.join(self.classification.classes)}",
            f"static width w = {self.static_width}",
            f"dynamic width δ = {self.dynamic_width}",
            "canonical variable order:",
            self.canonical_order.pretty(),
        ]
        return "\n".join(lines)


def plan_query(query, mode: str = DYNAMIC_MODE) -> QueryPlan:
    """Validate and analyse a query (data-independent part of planning)."""
    cq = coerce_query(query)
    classification = validate_query(cq, mode)
    canonical = build_canonical_variable_order(cq)
    free_top = free_top_order(canonical, cq)
    return QueryPlan(
        query=cq,
        mode=mode,
        classification=classification,
        canonical_order=canonical,
        free_top=free_top,
        static_width=static_width(cq),
        dynamic_width=dynamic_width(cq),
    )


def instantiate_plan(plan: QueryPlan, database: Database) -> SkewAwarePlan:
    """Bind a query plan to a concrete database (builds the view trees)."""
    validate_database(plan.query, database)
    return build_skew_aware_plan(plan.query, plan.canonical_order, database, plan.mode)
