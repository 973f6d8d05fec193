"""The Union algorithm (Figure 15, after Durand & Strozecki).

Given ``n`` sources that enumerate possibly overlapping sets of tuples over
the same schema — each with its own per-tuple multiplicity and a constant(ish)
time ``lookup`` — the union iterator enumerates every *distinct* tuple exactly
once, with multiplicity equal to the sum of its multiplicities across the
sources, and with delay bounded by the sum of the sources' delays.

The trick: when the next tuple of the first ``n−1`` sources also occurs in
the ``n``-th source, output the next tuple of the ``n``-th source instead
(it is new by construction); the skipped tuple will be produced when the
``n``-th source reaches it.

The module also hosts the *shard-merging* enumeration path of
:mod:`repro.sharding`: :func:`merge_shards` performs an order-preserving
k-way merge of per-shard enumerations sorted by :func:`canonical_sort_key`,
summing multiplicities of tuples produced by several shards.  Union handles
sources over one engine's disjoint strategies; the shard merge handles
sources that are whole engines.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.schema import ValueTuple


class UnionSource:
    """Interface expected from union inputs.

    ``next`` returns ``(key, multiplicity)`` pairs with pairwise-distinct
    keys, or ``None`` when exhausted; ``lookup`` returns the multiplicity of
    a key in this source (0 when absent).
    """

    def next(self) -> Optional[Tuple[ValueTuple, int]]:  # pragma: no cover - interface
        raise NotImplementedError

    def lookup(self, key: ValueTuple) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class UnionIterator(UnionSource):
    """Distinct-tuple enumeration of the union of several sources.

    Level ``i`` of Figure 15 is the union of sources ``0..i``; its "left"
    input is level ``i − 1``.  The levels are walked in a loop, not by one
    nested iterator per source, so thousands of sources (one per heavy key
    as ε → 0) cost no Python stack.  Iterate it, or call :meth:`next`.
    """

    def __init__(self, sources: Sequence[UnionSource]) -> None:
        if not sources:
            raise ValueError("UnionIterator needs at least one source")
        self._lookups = [source.lookup for source in sources]
        # The generator holds the sources, not this object: no reference
        # cycle, so an abandoned enumeration (and the frozen relations its
        # sources read) is freed by reference count, not by the collector.
        self._items = _advance([source.next for source in sources], self._lookups)

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        return self._items

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        return next(self._items, None)

    def lookup(self, key: ValueTuple) -> int:
        """Total multiplicity of ``key`` across all sources."""
        return sum(lookup(key) for lookup in self._lookups)


def _advance(
    nexts: Sequence[Callable[[], Optional[Tuple[ValueTuple, int]]]],
    lookups: Sequence[Callable[[ValueTuple], int]],
) -> Iterator[Tuple[ValueTuple, int]]:
    """Figure 15 over ``len(nexts)`` sources, the levels walked in a loop."""
    count = len(nexts)
    # The highest level whose left input is exhausted: the sources below it
    # are drained, so every advance starts at this source.
    base = 0
    while True:
        item = nexts[base]()
        # ``item`` is source ``fresh``'s own next tuple; the sources below
        # ``fresh`` have yet to be summed into its multiplicity.
        fresh = base
        for level in range(base + 1, count):
            if item is None:
                base = fresh = level
                item = nexts[level]()
                continue
            collided = lookups[level](item[0])
            if collided:
                # The tuple also occurs in this source: output this source's
                # next tuple instead (new by construction); the skipped one
                # is produced when this source reaches it.
                swapped = nexts[level]()
                if swapped is None:
                    # Defensive: the invariant guarantees the source is not
                    # exhausted while collisions remain; fall back to the
                    # collided tuple with its full multiplicity.
                    item = item[0], item[1] + collided
                else:
                    item, fresh = swapped, level
        if item is None:
            return
        if fresh:
            key, mult = item
            for index in range(fresh):
                mult += lookups[index](key)
            item = key, mult
        yield item


# ----------------------------------------------------------------------
# shard merging (the sharded engine's enumeration path)
# ----------------------------------------------------------------------
def canonical_sort_key(tup: ValueTuple) -> Tuple:
    """A total, deterministic sort key over result tuples of mixed types.

    Python refuses to order values of different types (``3 < "a"`` raises),
    so the canonical enumeration order of the sharded engine sorts each
    component under a type tag — values of one kind order naturally,
    different kinds order by tag, and unorderable values fall back to their
    ``repr``.  All numbers share one tag because tuple equality already
    treats ``1 == 1.0 == True`` as the same value (numeric comparison
    across int/float is exact in Python), so two shards producing
    numerically equal tuples group — and sum — correctly in the merge.
    The key is process-independent, which is what makes sharded enumeration
    byte-identical across runs and executors.
    """
    return tuple(
        ("num", v)
        if isinstance(v, (bool, int, float))
        else (type(v).__name__, v)
        if isinstance(v, (str, bytes))
        else (type(v).__name__, repr(v))
        for v in tup
    )


def sort_shard_result(
    pairs: Iterable[Tuple[ValueTuple, int]]
) -> List[Tuple[ValueTuple, int]]:
    """Materialize one shard's enumeration in canonical order."""
    return sorted(pairs, key=lambda pair: canonical_sort_key(pair[0]))


def merge_shards(
    sources: Sequence[Iterable[Tuple[ValueTuple, int]]]
) -> Iterator[Tuple[ValueTuple, int]]:
    """Order-preserving k-way merge of per-shard enumerations.

    Every source must yield ``(tuple, multiplicity)`` pairs in
    :func:`canonical_sort_key` order with pairwise-distinct tuples (each
    shard engine already enumerates distinct tuples; shards themselves may
    overlap when the shard key is not free in the query).  The merge yields
    every distinct tuple exactly once, in canonical order, with multiplicity
    summed across the shards that produced it — so the merged result is
    exactly the single-engine result, reordered canonically.

    The merge holds one pending pair per shard (a heap of size k), so the
    delay between outputs is ``O(log k)`` plus the shards' own delays.  An
    out-of-order source is reported with :class:`ValueError` rather than
    silently mis-merged.
    """
    iterators = [iter(source) for source in sources]
    last_keys: List[Optional[Tuple]] = [None] * len(iterators)
    heap: List[Tuple[Tuple, int, ValueTuple, int]] = []

    def pull(index: int) -> None:
        item = next(iterators[index], None)
        if item is None:
            return
        tup, mult = item
        key = canonical_sort_key(tup)
        previous = last_keys[index]
        if previous is not None and key <= previous:
            raise ValueError(
                f"shard source {index} enumerated {tup!r} out of canonical "
                "order; merge_shards requires sorted, duplicate-free sources"
            )
        last_keys[index] = key
        heapq.heappush(heap, (key, index, tup, mult))

    for index in range(len(iterators)):
        pull(index)
    while heap:
        key, index, tup, mult = heapq.heappop(heap)
        pull(index)
        while heap and heap[0][0] == key:
            _, other, _tup, other_mult = heapq.heappop(heap)
            mult += other_mult
            pull(other)
        if mult != 0:
            yield tup, mult


class CallbackSource(UnionSource):
    """Adapter turning ``next``/``lookup`` callables into a union source."""

    def __init__(
        self,
        next_fn: Callable[[], Optional[Tuple[ValueTuple, int]]],
        lookup_fn: Callable[[ValueTuple], int],
    ) -> None:
        # Instance attributes shadow the interface methods, so the union
        # calls the callables themselves with no frame in between.
        self.next = next_fn  # type: ignore[method-assign]
        self.lookup = lookup_fn  # type: ignore[method-assign]
