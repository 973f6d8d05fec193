"""Shard routing: which shard owns a tuple, an update, a batch, a database.

The router binds the planner-chosen shard-key variable
(:func:`repro.core.planner.choose_shard_key`) to a concrete column position
per relation, and from there every routing decision is one stable hash
(:func:`repro.data.partition.shard_of`) of that column's value:

* a base tuple of ``R`` lives on ``shard_of(tup[column[R]], shards)``;
* an event's parts come from :meth:`ShardRouter.route`, the one place that
  decides what a shard receives: an update goes to the shard owning its
  tuple, a retune to every shard, and a batch or a raw update list through
  one loop that folds its entries into per-shard sub-batches;
* a database splits into per-shard sub-databases, each carrying *every*
  relation of the original (possibly empty) so each shard engine can plan
  and maintain independently.

Because the shard key occurs in every atom, two tuples that join agree on
its value and therefore land on the same shard — delta propagation, minor
and major rebalancing all stay shard-local by construction.  Relations that
do not occur in the query have no shard column; they are parked wholly on
shard 0 so no data is silently dropped, and the placement invariant check
ignores them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.planner import choose_shard_key
from repro.data.database import Database
from repro.data.partition import shard_of
from repro.data.update import Event, Retune, Update, UpdateBatch
from repro.exceptions import InvariantViolationError, SchemaError, UnknownRelationError
from repro.query.conjunctive import ConjunctiveQuery


class ShardRouter:
    """Deterministic hash-routing of one query's data onto ``shards`` shards."""

    def __init__(self, query: ConjunctiveQuery, shards: int) -> None:
        if shards <= 0:
            raise ValueError(f"shard count must be positive, got {shards}")
        self.query = query
        self.shards = shards
        # the planner's key occurs in every atom (or the query is refused)
        self.shard_key = choose_shard_key(query)
        self.columns: Dict[str, int] = {
            atom.relation: atom.variables.index(self.shard_key) for atom in query.atoms
        }
        self.key_is_free = self.shard_key in query.free_variables
        # A free key's column in result tuples: its value names their shard.
        self.head_column = query.head.index(self.shard_key) if self.key_is_free else None

    # ------------------------------------------------------------------
    # single-item routing
    # ------------------------------------------------------------------
    def column_of(self, relation_name: str) -> int:
        """The shard-key column position of one relation."""
        try:
            return self.columns[relation_name]
        except KeyError as exc:
            raise UnknownRelationError(
                f"relation {relation_name!r} does not occur in query "
                f"{self.query}; it has no shard column"
            ) from exc

    def shard_of_value(self, value: object) -> int:
        """The shard owning one shard-key value."""
        return shard_of(value, self.shards)

    def shard_of_tuple(self, relation_name: str, tup: Tuple) -> int:
        """The shard owning one base tuple of ``relation_name``."""
        column = self.column_of(relation_name)
        if len(tup) <= column:  # what the shard would reject, before routing
            raise SchemaError(f"tuple {tup!r} has arity {len(tup)}, no shard-key column {column}")
        return self.shard_of_value(tup[column])

    def shard_of_update(self, update: Update) -> int:
        """The shard an update routes to."""
        return self.shard_of_tuple(update.relation, update.tuple)

    # ------------------------------------------------------------------
    # bulk routing
    # ------------------------------------------------------------------
    def split_database(self, database: Database) -> List[Database]:
        """Split a database into one sub-database per shard.

        Every shard receives every relation (empty when no tuple routes to
        it), so each shard engine sees a complete schema.  Relations outside
        the query are parked on shard 0 unchanged.
        """
        parts = [Database() for _ in range(self.shards)]
        for relation in database:
            targets = [
                part.create_relation(relation.name, relation.schema)
                for part in parts
            ]
            if relation.name not in self.columns:
                targets[0].merge(relation)
                continue
            column = self.columns[relation.name]
            for tup, mult in relation.items():
                targets[shard_of(tup[column], self.shards)].apply_delta(tup, mult)
        return parts

    def route(self, event: Event) -> Dict[int, Event]:
        """Each shard's part of one event, keyed by shard: the only place
        that decides what a shard receives.

        A :class:`Retune` goes to every shard, an :class:`Update` to the
        shard owning its tuple.  A consolidated :class:`UpdateBatch` and a
        raw update list share one loop, which folds ``(relation, tuple,
        multiplicity)`` entries into per-shard sub-batches and counts each
        entry as one source.  A batch feeds it its net entries, so an empty
        net effect routes nowhere; a list feeds it its source updates, so
        each shard's ``source_count`` is exact, and a sub-batch whose
        updates cancel still reaches (and ticks) its shard like the
        unsharded driver.
        """
        if isinstance(event, Retune):
            return dict.fromkeys(range(self.shards), event)
        if isinstance(event, Update):
            return {self.shard_of_update(event): event}
        if isinstance(event, UpdateBatch):
            entries = (
                (relation, tup, mult)
                for relation in event.relations()
                for tup, mult in event.delta_for(relation).items()
            )
        else:
            entries = ((update.relation, update.tuple, update.multiplicity) for update in event)
        parts: Dict[int, UpdateBatch] = {}
        for relation, tup, mult in entries:
            shard = self.shard_of_tuple(relation, tup)
            part = parts.get(shard)
            if part is None:
                part = parts[shard] = UpdateBatch()
            part.add_source(relation, tup, mult)
        return parts

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_placement(self, database: Database, shard_index: int) -> None:
        """Assert every stored tuple of ``database`` belongs on ``shard_index``.

        This is the cross-shard half of the sharded engine's
        ``check_invariants``: a routing bug (or a divergent hash between
        coordinator and worker) surfaces as a misplaced tuple long before it
        corrupts an enumeration.
        """
        for relation in database:
            column = self.columns.get(relation.name)
            if column is None:
                continue
            for tup in relation.tuples():
                owner = shard_of(tup[column], self.shards)
                if owner != shard_index:
                    raise InvariantViolationError(
                        f"tuple {tup!r} of {relation.name!r} is stored on "
                        f"shard {shard_index} but its shard key "
                        f"{tup[column]!r} hashes to shard {owner}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter(shards={self.shards}, key={self.shard_key!r}, "
            f"columns={self.columns!r})"
        )
