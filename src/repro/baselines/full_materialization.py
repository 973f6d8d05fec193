"""Baseline: eager full materialization of the query result.

This is the ε = 1 corner of the paper's trade-off space restated as its own
engine (and the behaviour of prior work on arbitrary conjunctive queries
[45, 42]): spend ``O(N^w)`` preprocessing to materialize the result with an
index, then enumerate with constant delay and maintain the result with delta
queries on updates.  Unlike :class:`FirstOrderIVMEngine` it reports the size
of the materialized result so the space dimension of Figures 4 and 5 can be
reproduced as well.  Complexity: ``O(N^w)`` preprocessing and space,
``O(1)`` delay, delta-query updates (at least linear for non-q-hierarchical
queries); batches are inherited from the first-order engine (one delta query
per batch relation group).

Usage::

    from repro.baselines import FullMaterializationEngine
    from repro.workloads import path_query_database

    engine = FullMaterializationEngine("Q(A, C) = R(A, B), S(B, C)")
    engine.load(path_query_database(100, seed=1))
    print(engine.materialized_size())        # |Q(D)| distinct result tuples
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.baselines.first_order_ivm import FirstOrderIVMEngine


class FullMaterializationEngine(FirstOrderIVMEngine):
    """Eagerly materialized result with delta maintenance (ε = 1 analogue)."""

    name = "full-materialization"

    def materialized_size(self) -> int:
        """Number of distinct tuples stored in the materialized result."""
        self._require_loaded()
        return len(self._result)
