"""Sharded parallel maintenance: hash-partitioned IVM^ε across engines.

The subsystem splits one hierarchical query's data across ``k`` independent
:class:`~repro.core.api.HierarchicalEngine` instances by hashing the
planner-chosen shard key (a variable occurring in every atom, so joins and
rebalancing stay shard-local), routes single updates and batches to their
shards, and answers enumeration through an order-preserving k-way merge.

Entry point::

    from repro.sharding import ShardedEngine

    engine = ShardedEngine("Q(A, C) = R(A, B), S(B, C)", shards=4)
    engine.load(db)
    engine.apply_batch(stream)
    print(dict(engine.enumerate()))   # == single-engine result

See :mod:`repro.sharding.engine` for the facade,
:mod:`repro.sharding.router` for routing, and
:mod:`repro.sharding.executor` for the serial / thread / process backends.
"""

from repro.sharding.engine import (
    SMALL_N_THRESHOLD,
    ShardedEngine,
    ShardedSnapshot,
)
from repro.sharding.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadExecutor,
)
from repro.sharding.router import ShardRouter

__all__ = [
    "EXECUTORS",
    "SMALL_N_THRESHOLD",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardExecutor",
    "ShardRouter",
    "ShardedEngine",
    "ShardedSnapshot",
    "ThreadExecutor",
]
