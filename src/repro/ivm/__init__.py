"""Incremental view maintenance: delta propagation, updates, rebalancing.

One ingestion path: :class:`UpdateProcessor` runs the paper's Figure 19 on
a relation group ``δR`` (a single-tuple update is a group of one, a
consolidated :class:`~repro.data.update.UpdateBatch` one group per relation)
and :class:`MaintenanceDriver` runs the Figure 22 trigger once per event.
"""

from repro.ivm.delta import propagate_delta
from repro.ivm.maintenance import UpdateProcessor
from repro.ivm.rebalance import MaintenanceDriver, RebalanceStats

__all__ = [
    "MaintenanceDriver",
    "RebalanceStats",
    "UpdateProcessor",
    "propagate_delta",
]
