"""repro — a reproduction of "Trade-offs in Static and Dynamic Evaluation of
Hierarchical Queries" (Kara, Nikolic, Olteanu, Zhang; PODS 2020).

The package implements the paper's IVM^ε algorithm end to end: hierarchical
query classification, canonical/free-top variable orders, static and dynamic
width measures, skew-aware view trees over heavy/light partitions,
preprocessing, constant-delay-style enumeration with the Union and Product
algorithms, and incremental maintenance with minor/major rebalancing — plus
baselines, synthetic workloads, and a benchmark harness that regenerates the
shape of every figure in the paper.

Quickstart::

    from repro import Database, HierarchicalEngine

    db = Database.from_dict({
        "R": (("A", "B"), [(1, 10), (2, 10)]),
        "S": (("B", "C"), [(10, 5)]),
    })
    engine = HierarchicalEngine("Q(A, C) = R(A, B), S(B, C)", epsilon=0.5)
    engine.load(db)
    print(engine.result())
"""

from repro.adaptive import AdaptiveController, WorkloadTelemetry
from repro.core.api import DynamicEngine, HierarchicalEngine, StaticEngine
from repro.core.serving import EngineServer
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.update import Retune, Update, UpdateBatch, UpdateStream
from repro.snapshot import Snapshot
from repro.query.atom import Atom, atom
from repro.query.classes import classify
from repro.query.conjunctive import ConjunctiveQuery, query
from repro.query.parser import parse_query
from repro.rings import AggregateSpec, Ring, get_ring, ring_names
from repro.sharding import ShardedEngine
from repro.widths.dynamic_width import dynamic_width
from repro.widths.static_width import static_width

__version__ = "1.0.0"

__all__ = [
    "AdaptiveController",
    "AggregateSpec",
    "Atom",
    "ConjunctiveQuery",
    "Database",
    "DynamicEngine",
    "EngineServer",
    "HierarchicalEngine",
    "Relation",
    "Ring",
    "ShardedEngine",
    "Snapshot",
    "StaticEngine",
    "Retune",
    "Update",
    "UpdateBatch",
    "UpdateStream",
    "WorkloadTelemetry",
    "atom",
    "classify",
    "dynamic_width",
    "get_ring",
    "parse_query",
    "query",
    "ring_names",
    "static_width",
    "__version__",
]
