"""The Union algorithm (Figure 15, after Durand & Strozecki).

Given ``n`` sources that enumerate possibly overlapping sets of tuples over
the same schema — each with its own per-tuple multiplicity and a constant(ish)
time ``lookup`` — the union iterator enumerates every *distinct* tuple exactly
once, with multiplicity equal to the sum of its multiplicities across the
sources, and with delay bounded by the sum of the sources' delays.

The trick: when the next tuple of the first ``n−1`` sources also occurs in
the ``n``-th source, output the next tuple of the ``n``-th source instead
(it is new by construction); the skipped tuple will be produced when the
``n``-th source reaches it.  A source is a plain ``(next, lookup)`` pair of
callables, and :func:`union` returns a generator over them.

The sources are one engine's strategy trees, or the page cursors of a
sharded read (:mod:`repro.sharding.engine`), one per shard.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.data.schema import ValueTuple


#: One Union input: ``next()`` returns the source's next ``(key,
#: multiplicity)`` pair (keys pairwise distinct) or ``None`` once exhausted;
#: ``lookup(key)`` returns the key's multiplicity in the source (0 when
#: absent).
Source = Tuple[
    Callable[[], Optional[Tuple[ValueTuple, int]]], Callable[[ValueTuple], int]
]


def union(sources: Sequence[Source]) -> Iterator[Tuple[ValueTuple, int]]:
    """Distinct-tuple enumeration of the union of ``(next, lookup)`` sources.

    Level ``i`` of Figure 15 is the union of sources ``0..i``; its "left"
    input is level ``i − 1``.  The levels are walked in a loop, not by one
    nested iterator per source, so thousands of sources (one per heavy key
    as ε → 0) cost no Python stack.  Raises :class:`ValueError` at once
    when given no source.
    """
    if not sources:
        raise ValueError("union needs at least one source")
    return _advance([next_ for next_, _ in sources], [lookup for _, lookup in sources])


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
