"""Common scaffolding for baseline engines.

Baselines implement the same external interface as
:class:`repro.core.api.HierarchicalEngine` — ``load``, the update API of
:class:`~repro.data.update.MutationSurface` over one ``commit(event)``,
``enumerate`` and the read surface derived from it
(:class:`~repro.enumeration.result.ReadSurface`: ``result``,
``count_distinct``, iteration, ``aggregate``) — so the benchmark harness
can swap them in and out when reproducing the comparison tables (Figures 4
and 5 of the paper), and so batched-ingestion comparisons stay
apples-to-apples across all engines.

Subclasses implement three hooks: ``_preprocess`` (build whatever state the
strategy maintains), ``_apply_update`` (absorb one single-tuple update), and
optionally ``_apply_batch`` (absorb one consolidated
:class:`~repro.data.update.UpdateBatch`; the default replays the batch's net
updates through ``_apply_update``, which already benefits from cancelled
insert/delete pairs).  A baseline has no ε, so a
:class:`~repro.data.update.Retune` (``retune(eps)``) raises
:class:`~repro.exceptions.UnsupportedQueryError`.

Usage::

    from repro.baselines import NaiveRecomputeEngine
    from repro.workloads import mixed_stream, path_query_database

    database = path_query_database(100, seed=1)
    engine = NaiveRecomputeEngine("Q(A, C) = R(A, B), S(B, C)")
    engine.load(database)
    engine.apply_stream(mixed_stream(database, 50, seed=2), batch_size=10)
    print(len(engine.result()))
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Tuple

from repro.core.planner import coerce_query
from repro.data.database import Database
from repro.data.schema import ValueTuple
from repro.data.update import (
    Event,
    MutationSurface,
    Retune,
    Update,
    UpdateBatch,
    as_batch,
)
from repro.enumeration.result import ReadSurface
from repro.exceptions import ReproError, UnsupportedQueryError


class BaselineEngine(ReadSurface, MutationSurface):
    """Abstract base class of the baseline evaluation strategies."""

    name = "baseline"

    def __init__(self, query, copy_database: bool = True) -> None:
        self.query = coerce_query(query)
        self.copy_database = copy_database
        self.database: Optional[Database] = None
        self.preprocessing_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def load(self, database: Database) -> "BaselineEngine":
        """Run the baseline's preprocessing stage."""
        self.database = database.copy() if self.copy_database else database
        started = time.perf_counter()
        self._preprocess()
        self.preprocessing_seconds = time.perf_counter() - started
        return self

    def _require_loaded(self) -> None:
        if self.database is None:
            raise ReproError("the engine has no database; call load() first")

    # -- hooks ---------------------------------------------------------------
    def _preprocess(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _apply_update(self, update: Update) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError

    def _apply_batch(self, batch: UpdateBatch) -> None:
        """Absorb one consolidated batch; default replays the net updates.

        The batch is validated against the current base relations first, so
        an over-deleting entry rejects the whole batch before any replayed
        update has touched engine state.
        """
        batch.validate_against(self.database)
        for update in batch.updates():
            self._apply_update(update)

    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    def commit(self, event: Event) -> None:
        """Absorb one update, or one batch consolidated to its net effect."""
        if isinstance(event, Retune):
            raise UnsupportedQueryError(f"{self.name} has no ε to retune")
        self._require_loaded()
        if isinstance(event, Update):
            self._apply_update(event)
        else:
            self._apply_batch(as_batch(event))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.query!s})"
