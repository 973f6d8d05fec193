"""Single-tuple updates, update streams, and consolidated update batches.

The paper models an update as ``δR = {x → m}``: an insert when ``m > 0`` and
a delete when ``m < 0`` (Section 3).  :class:`Update` captures exactly that,
and :class:`UpdateStream` is a thin convenience wrapper used by the dynamic
engine, the baselines, and the benchmark harness so all of them consume the
same update sequences.

:class:`UpdateBatch` generalises the model to ``δR = {x₁ → m₁, …, xₖ → mₖ}``
over several relations at once: it stores the *net effect* of a sequence of
single-tuple updates (same-tuple deltas are merged, zero-multiplicity no-ops
are dropped) grouped by relation.  Because delta propagation is linear in the
delta for fixed sibling contents, replaying a batch relation group by
relation group yields the same final query result as replaying the source
updates one by one — the maintenance path
(:meth:`repro.ivm.maintenance.UpdateProcessor.apply_group`) works on such
groups, and a single :class:`Update` is a group of one.
``UpdateStream.batches(size)`` chunks a recorded stream into consecutive
batches.

A commit is one value — an :class:`Update`, an :class:`UpdateBatch`, a raw
update list, or a :class:`Retune` (the live ε switch, reusing major
rebalancing) — passed unchanged through every engine-shaped class's one
``commit(event)`` (:class:`MutationSurface` spells the update API over it),
the shard pipe, the reshard tail and the WAL codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.data.database import Database
from repro.data.schema import ValueTuple
from repro.exceptions import RejectedUpdateError


@dataclass(frozen=True)
class Update:
    """A single-tuple update ``δR = {tuple → multiplicity}``."""

    relation: str
    tuple: ValueTuple
    multiplicity: int = 1

    @property
    def is_insert(self) -> bool:
        """True when the update adds copies of the tuple."""
        return self.multiplicity > 0

    @property
    def is_delete(self) -> bool:
        """True when the update removes copies of the tuple."""
        return self.multiplicity < 0

    def inverted(self) -> "Update":
        """Return the update that undoes this one."""
        return Update(self.relation, self.tuple, -self.multiplicity)

    def __post_init__(self) -> None:
        if self.multiplicity == 0:
            raise ValueError("an update must have a non-zero multiplicity")
        object.__setattr__(self, "tuple", tuple(self.tuple))


def check_epsilon(epsilon: float) -> float:
    """Return ``epsilon`` when it lies in ``[0, 1]``; raise ``ValueError`` else."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return epsilon


@dataclass(frozen=True)
class Retune:
    """A live switch of the trade-off knob to ``epsilon``, committed like an update.

    ε is engine state: a retune ticks the version once, is logged to the
    WAL and replayed by recovery in order with the updates around it.
    """

    epsilon: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)


class UpdateBatch:
    """The net effect of a sequence of updates, grouped by relation.

    A batch stores ``{relation → {tuple → net multiplicity}}``: adding an
    update merges its multiplicity into the entry of its tuple, and entries
    whose net multiplicity reaches zero are dropped (an insert followed by a
    matching delete inside one batch is a no-op end to end).
    ``source_count`` remembers how many single-tuple updates were folded in,
    so throughput accounting stays in terms of the original stream.

    Typical use::

        batch = UpdateBatch([Update("R", (1, 2), 1), Update("R", (1, 2), -1)])
        batch.is_empty()        # True — the pair cancelled
        batch.source_count      # 2

    Batches are consumed by :meth:`repro.core.api.HierarchicalEngine.apply_batch`
    and by the ``apply_batch`` method of every baseline engine.
    """

    def __init__(self, updates: Iterable[Update] = ()) -> None:
        self._deltas: Dict[str, Dict[ValueTuple, int]] = {}
        self._source_count = 0
        self.extend(updates)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, update: Update) -> None:
        """Fold one single-tuple update into the batch."""
        self.add_delta(update.relation, update.tuple, update.multiplicity)
        self._source_count += 1

    def extend(self, updates: Iterable[Update]) -> None:
        """Fold a sequence of single-tuple updates into the batch."""
        for update in updates:
            self.add(update)

    def add_delta(self, relation: str, tup: ValueTuple, multiplicity: int) -> None:
        """Merge a raw delta entry without counting it as a source update."""
        if multiplicity == 0:
            return
        group = self._deltas.setdefault(relation, {})
        tup = tuple(tup)
        merged = group.get(tup, 0) + multiplicity
        if merged == 0:
            del group[tup]
            if not group:
                del self._deltas[relation]
        else:
            group[tup] = merged

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def source_count(self) -> int:
        """Number of single-tuple updates folded into this batch."""
        return self._source_count

    def is_empty(self) -> bool:
        """True when every source update cancelled out."""
        return not self._deltas

    def __len__(self) -> int:
        """Number of net ``(relation, tuple)`` delta entries."""
        return sum(len(group) for group in self._deltas.values())

    def relations(self) -> Tuple[str, ...]:
        """Relations with at least one net delta, in first-touched order."""
        return tuple(self._deltas)

    def delta_for(self, relation: str) -> Mapping[ValueTuple, int]:
        """The net delta ``{tuple → multiplicity}`` of one relation."""
        return self._deltas.get(relation, {})

    def deltas_by_relation(self) -> Dict[str, Dict[ValueTuple, int]]:
        """A copy of all per-relation net deltas."""
        return {name: dict(group) for name, group in self._deltas.items()}

    def updates(self) -> Iterator[Update]:
        """The net updates, grouped by relation (one per surviving entry)."""
        for relation, group in self._deltas.items():
            for tup, mult in group.items():
                yield Update(relation, tup, mult)

    def split_by(
        self, classify: Callable[[str, ValueTuple], int]
    ) -> Dict[int, "UpdateBatch"]:
        """Partition the net deltas into sub-batches by a routing function.

        ``classify(relation, tuple)`` names the bucket (e.g. the shard index)
        of one net entry; entries are folded into one sub-batch per bucket
        via :meth:`add_delta`.  Buckets that receive no entry are absent from
        the result — in particular, a batch whose net effect is empty splits
        into an *empty mapping*, never into empty sub-batches, so routing a
        fully-cancelled batch dispatches no work anywhere (the boundary
        contract shared with :meth:`UpdateStream.batches`, which *does* yield
        fully-cancelled batches so source-update accounting stays exact).

        Each sub-batch's ``source_count`` equals its number of net entries:
        the original per-update attribution cannot be reconstructed from net
        deltas, so callers that need exact per-bucket source counts should
        route the raw updates *before* consolidating (the sharded engine does
        this when handed a stream rather than a batch).
        """
        buckets: Dict[int, "UpdateBatch"] = {}
        for relation, group in self._deltas.items():
            for tup, mult in group.items():
                bucket = buckets.setdefault(classify(relation, tup), UpdateBatch())
                bucket.add(Update(relation, tup, mult))
        return buckets

    def validate_against(self, database: Database) -> None:
        """:func:`validate_groups` over this batch's net deltas."""
        validate_groups(self._deltas, database)

    def apply_to(self, database: Database) -> None:
        """Apply every net delta directly to the base relations.

        Like :meth:`UpdateStream.apply_to` this bypasses incremental
        maintenance; baselines use it to refresh ground-truth state in one
        pass.  The batch is validated first, so an over-deleting entry
        raises before *any* delta is applied and the database is left
        untouched.
        """
        self.validate_against(database)
        for relation, group in self._deltas.items():
            database.relation(relation).apply_deltas(group.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateBatch(relations={len(self._deltas)}, entries={len(self)}, "
            f"source_count={self._source_count})"
        )


def validate_groups(
    groups: Mapping[str, Mapping[ValueTuple, int]], database: Database
) -> None:
    """Raise unless every entry of ``groups`` can be applied; touch nothing.

    A tuple of the wrong arity is a :class:`~repro.exceptions.SchemaError`, a
    net delete beyond the *current* multiplicity a :class:`RejectedUpdateError`
    — raised before any state changes (all-or-nothing ingestion).
    """
    for relation, group in groups.items():
        target = database.relation(relation)
        arity = target.arity
        for tup, mult in group.items():
            if len(tup) != arity:
                target.check_arity(tup)
            if mult < 0 and target.multiplicity(tup) + mult < 0:
                raise RejectedUpdateError(
                    f"update rejected: net delete of {-mult} copies of "
                    f"{tup!r} from {relation!r} exceeds the stored "
                    f"multiplicity {target.multiplicity(tup)}; "
                    "nothing was applied"
                )


def as_batch(updates: Union["UpdateBatch", Iterable[Update]]) -> "UpdateBatch":
    """Coerce an :class:`UpdateBatch`, stream, or iterable into a batch."""
    if isinstance(updates, UpdateBatch):
        return updates
    return UpdateBatch(updates)


def iter_chunks(updates: Iterable[Update], size: int) -> Iterator[List[Update]]:
    """Cut any iterable of updates into consecutive lists of ``size`` updates.

    The last chunk may be shorter.  Raises :class:`ValueError`
    *immediately* for a non-integer or non-positive ``size`` — at call
    time, not lazily at the first ``next()`` — so a bad batch size can
    never be mistaken for an empty stream.
    """
    if not isinstance(size, int) or isinstance(size, bool):
        raise ValueError(f"batch size must be an integer, got {size!r}")
    if size <= 0:
        raise ValueError(f"batch size must be positive, got {size}")
    return _iter_chunks(updates, size)


def _iter_chunks(updates: Iterable[Update], size: int) -> Iterator[List[Update]]:
    chunk: List[Update] = []
    for update in updates:
        chunk.append(update)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def iter_batches(updates: Iterable[Update], size: int) -> Iterator["UpdateBatch"]:
    """Chunk any iterable of updates into consecutive consolidated batches."""
    return map(UpdateBatch, iter_chunks(updates, size))


#: What ``commit(event)`` takes (see :class:`MutationSurface`).
Event = Union[Update, UpdateBatch, Retune, List[Update]]


class MutationSurface:
    """The update API of every engine-shaped class, written once over ``commit``.

    A subclass implements :meth:`commit` for one event — an
    :class:`Update`, an :class:`UpdateBatch`, a raw list of updates, or a
    :class:`Retune`; every method here only spells an event.  A raw list
    is a batch not yet consolidated: a single engine consolidates it on
    entry, the sharded facade routes it first so each shard's
    ``source_count`` stays exact.
    """

    def commit(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def update(self, relation: str, tup: ValueTuple, multiplicity: int = 1) -> None:
        """Apply a single-tuple update ``δR = {tup → multiplicity}``."""
        self.commit(Update(relation, tuple(tup), multiplicity))

    def insert(self, relation: str, tup: ValueTuple, multiplicity: int = 1) -> None:
        """Insert ``multiplicity`` copies of ``tup`` into ``relation``."""
        self.update(relation, tup, abs(multiplicity))

    def delete(self, relation: str, tup: ValueTuple, multiplicity: int = 1) -> None:
        """Delete ``multiplicity`` copies of ``tup`` from ``relation``."""
        self.update(relation, tup, -abs(multiplicity))

    def apply(self, update: Update) -> None:
        """Commit one :class:`Update`."""
        self.commit(update)

    apply_update = apply

    def apply_batch(self, updates: Union[UpdateBatch, Iterable[Update]]) -> None:
        """Commit many updates as one event, all or nothing.

        An :class:`UpdateBatch` is committed as it is; a stream or any
        other iterable as a raw list.  Same-tuple deltas merge and
        cancelled pairs drop before any maintenance work, the survivors
        are propagated in one grouped traversal followed by one deferred
        rebalance check, and the result equals applying the updates one by
        one; a rejected over-delete raises with nothing applied.  On a
        durable engine the batch is one WAL record (one fsync per batch).
        """
        self.commit(updates if isinstance(updates, UpdateBatch) else list(updates))

    def apply_stream(
        self, updates: Iterable[Update], batch_size: Optional[int] = None
    ) -> None:
        """Commit a sequence of updates one by one, or in chunks.

        With ``batch_size=None`` every update is its own commit (the
        paper's single-tuple model); otherwise each run of ``batch_size``
        consecutive updates is committed as one raw list (see
        :meth:`apply_batch`).
        """
        if batch_size is None:
            for update in updates:
                self.commit(update)
            return
        for chunk in iter_chunks(updates, batch_size):
            self.commit(chunk)

    def retune(self, epsilon: float) -> None:
        """Switch the live engine to a new ε without replaying the workload.

        One major-rebalance pass: the threshold base is re-anchored at
        ``M = 2N + 1``, every partition is strictly repartitioned at the
        new ``M^ε`` and every view recomputed, so the result and the
        enumeration order equal a fresh engine built at ``epsilon`` over
        the current data.  The version ticks once; open snapshots keep
        their capture-time state.  It costs a preprocessing pass —
        ``O(N^{1+(w−1)ε})`` — so a hysteresis policy should drive it
        (:class:`repro.adaptive.AdaptiveController`), not every update.
        ``epsilon`` outside ``[0, 1]`` raises :class:`ValueError`.
        """
        self.commit(Retune(epsilon))


class UpdateStream:
    """An ordered sequence of single-tuple updates."""

    def __init__(self, updates: Iterable[Update] = ()) -> None:
        self._updates: List[Update] = list(updates)

    def append(self, update: Update) -> None:
        self._updates.append(update)

    def extend(self, updates: Iterable[Update]) -> None:
        self._updates.extend(updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __getitem__(self, item: int) -> Update:
        return self._updates[item]

    def inserts(self) -> "UpdateStream":
        """Return the sub-stream of inserts, in order."""
        return UpdateStream(u for u in self._updates if u.is_insert)

    def deletes(self) -> "UpdateStream":
        """Return the sub-stream of deletes, in order."""
        return UpdateStream(u for u in self._updates if u.is_delete)

    def batches(self, size: int) -> Iterator[UpdateBatch]:
        """Chunk the stream into consecutive consolidated batches.

        Each batch folds ``size`` source updates (the last one possibly
        fewer) into their net per-relation deltas; ``size=len(stream)``
        consolidates the whole stream into one batch.
        """
        return iter_batches(self._updates, size)

    def consolidated(self) -> UpdateBatch:
        """Consolidate the entire stream into a single batch."""
        return UpdateBatch(self._updates)

    def split_by(
        self, classify: Callable[[Update], int]
    ) -> Dict[int, "UpdateStream"]:
        """Partition the stream into sub-streams by a routing function.

        Order is preserved within each sub-stream.  Unlike
        :meth:`UpdateBatch.split_by` this routes *source* updates, so
        per-bucket ``source_count`` accounting stays exact after the
        sub-streams are consolidated — including updates that later cancel
        inside a bucket's batch.
        """
        buckets: Dict[int, "UpdateStream"] = {}
        for update in self._updates:
            buckets.setdefault(classify(update), UpdateStream()).append(update)
        return buckets

    def apply_to(self, database: Database) -> None:
        """Apply every update directly to the base relations of ``database``.

        This bypasses any incremental maintenance and is used by tests and
        baselines to obtain the ground-truth database state.
        """
        for update in self._updates:
            database.relation(update.relation).apply_delta(
                update.tuple, update.multiplicity
            )

    @classmethod
    def from_database(cls, database: Database) -> "UpdateStream":
        """Return the stream that inserts every tuple of ``database``.

        The paper observes that preprocessing is equivalent to inserting ``N``
        tuples into an empty database; this helper makes that experiment (and
        the corresponding tests) a one-liner.
        """
        updates: List[Update] = []
        for relation in database:
            for tup, mult in relation.items():
                updates.append(Update(relation.name, tup, mult))
        return cls(updates)

    @classmethod
    def interleave(cls, streams: Sequence["UpdateStream"]) -> "UpdateStream":
        """Round-robin interleave several streams into one."""
        iterators = [iter(stream) for stream in streams]
        merged: List[Update] = []
        active = list(iterators)
        while active:
            still_active = []
            for iterator in active:
                try:
                    merged.append(next(iterator))
                except StopIteration:
                    continue
                still_active.append(iterator)
            active = still_active
        return cls(merged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateStream(len={len(self._updates)})"


def inserts_for(relation: str, tuples: Iterable[ValueTuple]) -> UpdateStream:
    """Build a stream of unit inserts into ``relation``."""
    return UpdateStream(Update(relation, tuple(tup), 1) for tup in tuples)


def deletes_for(relation: str, tuples: Iterable[ValueTuple]) -> UpdateStream:
    """Build a stream of unit deletes from ``relation``."""
    return UpdateStream(Update(relation, tuple(tup), -1) for tup in tuples)
