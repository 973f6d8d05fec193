"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  The exception names mirror the constraints stated
in the paper (Section 3 of Kara et al., PODS 2020): deletes that would drive a
multiplicity negative are *rejected*, queries outside the supported fragment
raise :class:`UnsupportedQueryError`, and schema mismatches between tuples and
relations raise :class:`SchemaError`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SchemaError(ReproError):
    """A tuple, projection, or join does not match the expected schema."""


class RejectedUpdateError(ReproError):
    """A delete would make a tuple's multiplicity negative.

    The paper's update model (Section 3, "Modeling Updates Using
    Multiplicities") requires all stored multiplicities to remain strictly
    positive; a delete of ``m`` copies of a tuple with fewer than ``m``
    existing copies is rejected.
    """


class UnsupportedQueryError(ReproError):
    """The query lies outside the fragment supported by this implementation.

    The engine supports hierarchical conjunctive queries with arbitrary free
    variables, without repeating relation symbols, and with at least one atom
    of non-empty schema (the paper's footnotes 1 and 2).
    """


class NotHierarchicalError(UnsupportedQueryError):
    """The query is not hierarchical (Definition 1 of the paper)."""


class UnknownRelationError(ReproError):
    """An update or lookup referenced a relation not present in the database."""


class EnumerationError(ReproError):
    """The enumeration iterators were driven outside their protocol.

    For example calling ``next`` on an iterator that has not been opened.
    """


class InvariantViolationError(ReproError):
    """An internal data-structure invariant was violated.

    These errors indicate bugs in the maintenance logic (for example a
    partition whose heavy and light parts overlap on a key) and are used
    extensively by the consistency checkers exercised in the test suite.
    """


class StaleStateError(ReproError):
    """A snapshot or enumerator outlived the engine state it was built on.

    ``engine.load()`` replaces the engine's database, views, and indicator
    structures wholesale; any :class:`repro.snapshot.Snapshot` or live
    enumerator created against the previous load would otherwise silently
    read a mixture of old and new state.  Both raise this error instead, and
    so does every read of a snapshot after its ``close()``: the frozen copies
    it held go back to the copy-on-write tracker and move on to later
    versions.
    """


class DurabilityError(ReproError):
    """The durability layer hit an unrecoverable on-disk inconsistency.

    Torn WAL tails and corrupt trailing checkpoints are *expected* crash
    residue and are repaired silently (with a log line) during recovery;
    this error is reserved for states no crash of this code can produce —
    a directory with no readable checkpoint at all, a WAL whose records
    contradict the checkpoint they should extend, or a recovery replay
    that lands on the wrong version.
    """


class WriterFailedError(ReproError):
    """The serving writer loop died; readers must not keep serving silently.

    :class:`repro.core.serving.EngineServer` captures a writer-loop
    exception and — instead of sitting on it until ``stop_writer`` — raises
    this from :meth:`~repro.core.serving.EngineServer.check_writer`, which
    every read consults.  The original exception is attached as
    ``__cause__`` and is still re-raised by ``stop_writer``.
    """


class WorkerDiedError(ReproError):
    """A shard worker process died while a command was in flight.

    Carries the indexes of the dead shards, the replies of the shards that
    survived the round (``replies``, by shard) and the first error one of
    them raised (``error``, or ``None``).  The live fleet of a durable
    :class:`~repro.sharding.ShardedEngine` catches it and restarts exactly
    those workers from their durability directories while the rest keep
    serving (:meth:`~repro.sharding.ShardedEngine._round`); it reaches the
    caller from a non-durable fleet, from a new fleet a reshard is building,
    and from a retired fleet that old snapshots still read.
    """

    def __init__(
        self,
        shard_indexes,
        message: str = "",
        replies: Optional[Dict[int, Any]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self.shard_indexes = tuple(sorted(shard_indexes))
        self.replies: Dict[int, Any] = dict(replies or {})
        self.error = error
        detail = message or (
            f"shard worker(s) {list(self.shard_indexes)} died mid-command"
        )
        super().__init__(detail)
