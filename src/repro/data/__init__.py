"""Data layer: relations with multiplicities, databases, partitions, updates."""

from repro.data.database import Database
from repro.data.partition import Partition, PartitionRegistry, light_part_name
from repro.data.relation import Index, Relation
from repro.data.schema import (
    Projector,
    Schema,
    ValueTuple,
    difference_schema,
    dict_to_tuple,
    intersect_schema,
    is_subschema,
    make_schema,
    merge_assignments,
    ordered,
    positions,
    project,
    tuple_to_dict,
    union_schema,
)
from repro.data.update import (
    Retune,
    Update,
    UpdateBatch,
    UpdateStream,
    as_batch,
    deletes_for,
    inserts_for,
    iter_batches,
)

__all__ = [
    "Database",
    "Index",
    "Partition",
    "PartitionRegistry",
    "Projector",
    "Relation",
    "Retune",
    "Schema",
    "Update",
    "UpdateBatch",
    "UpdateStream",
    "as_batch",
    "iter_batches",
    "ValueTuple",
    "deletes_for",
    "dict_to_tuple",
    "difference_schema",
    "inserts_for",
    "intersect_schema",
    "is_subschema",
    "light_part_name",
    "make_schema",
    "merge_assignments",
    "ordered",
    "positions",
    "project",
    "tuple_to_dict",
    "union_schema",
]
