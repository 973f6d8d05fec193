"""Commutative-ring payloads for aggregate views (see ``docs`` §16).

``base`` defines the :class:`Ring` contract, the registry, and the law
checker; ``library`` ships the concrete rings (counting, sum, min/max,
sum-product) and registers them on import; ``spec`` defines
:class:`AggregateSpec` — what to aggregate — and the one
``{group: (support, element)}`` shape every aggregate is held in: its
folds, its merge, its wire form, its answers, and the
:class:`MaintainedAggregate` state behind ``engine.aggregate()``.
"""

from repro.rings.base import (
    Ring,
    check_ring_laws,
    get_ring,
    register_ring,
    ring_names,
)
from repro.rings.library import (
    COUNTING,
    MAX,
    MIN,
    SUM,
    SUM_PRODUCT,
    CountingRing,
    MaxRing,
    MinRing,
    SumProductRing,
    SumRing,
)
from repro.rings.spec import (
    AggregateSpec,
    MaintainedAggregate,
    Unliftable,
    answer_map,
    fold_delta,
    fold_result,
    merge_elements,
    unwire_elements,
    wire_elements,
)

__all__ = [
    "AggregateSpec",
    "COUNTING",
    "CountingRing",
    "MAX",
    "MIN",
    "MaintainedAggregate",
    "MaxRing",
    "MinRing",
    "Ring",
    "SUM",
    "SUM_PRODUCT",
    "SumProductRing",
    "SumRing",
    "Unliftable",
    "answer_map",
    "check_ring_laws",
    "fold_delta",
    "fold_result",
    "get_ring",
    "merge_elements",
    "register_ring",
    "ring_names",
    "unwire_elements",
    "wire_elements",
]
