"""Top-level result enumeration over a skew-aware plan.

Per connected component of the query, the strategy trees produced by τ are
combined with the Union algorithm (their bound-variable valuations are
disjoint, so summing multiplicities yields the component's result); across
components the Product algorithm assembles the final tuples (Section 5).
Each tree is enumerated by the plan compiled for its shape
(:mod:`repro.enumeration.plan`), bound to the tree's relations when an
iteration starts: an enumerator that is never consumed opens nothing.

The enumerator yields ``(tuple, multiplicity)`` pairs where the tuple follows
the order of the query head.  It also offers ``to_dict``/``count`` helpers;
the enumeration delay is timed by
:func:`repro.bench.timing.measure_enumeration_delay`, from outside.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.data.schema import ValueTuple
from repro.enumeration.plan import compile_enumeration
from repro.enumeration.union import CallbackSource, UnionIterator
from repro.query.conjunctive import ConjunctiveQuery

# One strategy tree bound to its relations: ``open()`` and ``lookup(key)``.
_BoundTree = Tuple[Callable[[], Iterator], Callable[[ValueTuple], int]]
# One connected component: the variables its keys range over, its trees.
_Component = Tuple[Tuple[str, ...], List[_BoundTree]]


def _union(trees: Sequence[_BoundTree]) -> Iterator[Tuple[ValueTuple, int]]:
    """The Union of freshly opened strategy trees."""
    if not trees:
        return iter(())
    return iter(
        UnionIterator(
            [CallbackSource(partial(next, open_(), None), lookup) for open_, lookup in trees]
        )
    )


class ResultEnumerator:
    """Enumerates the distinct result tuples of a query with multiplicities.

    ``plan.component_trees`` lists, per connected component, strategy trees
    offering ``shape()`` and ``relations()`` — the
    :class:`~repro.views.view.ViewTreeNode` roots of a
    :class:`~repro.views.skew.SkewAwarePlan`, or a snapshot's captured trees.
    """

    def __init__(
        self,
        plan,
        query: ConjunctiveQuery,
        validator: Optional[Callable[[], None]] = None,
        telemetry=None,
    ) -> None:
        self.plan = plan
        self.query = query
        self.head: Tuple[str, ...] = tuple(query.head)
        # Called before every produced tuple; the engine passes a generation
        # check that raises StaleStateError once load() has replaced the
        # state this enumerator walks (mid-iteration included).
        self._check_valid: Callable[[], None] = validator or (lambda: None)
        # Optional repro.adaptive.WorkloadTelemetry: each iteration records
        # how many tuples it produced and how long it ran — partial reads
        # included, via the generator's finalization — so the adaptive ε
        # controller sees real enumeration costs.
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        if self._telemetry is None:
            return self._iterate()
        return self._telemetry.recorded_read(self._iterate())

    def _relations(self, tree) -> Tuple[Relation, ...]:
        """The relations a read of ``tree`` walks, in pre-order."""
        return tree.relations()

    def _components(self) -> List[_Component]:
        """Bind every strategy tree's compiled plan to its relations."""
        components: List[_Component] = []
        for trees in self.plan.component_trees:
            plans = [compile_enumeration(tree.shape(), self.head) for tree in trees]
            components.append(
                (
                    plans[0].out_vars if plans else (),
                    [plan.bind(self._relations(tree)) for plan, tree in zip(plans, trees)],
                )
            )
        return components

    def _iterate(self) -> Iterator[Tuple[ValueTuple, int]]:
        check = self._check_valid
        check()
        components = self._components()
        if not components:
            return
        if len(components) == 1 and components[0][0] == self.head:
            union = _union(components[0][1])
            while True:
                check()
                item = next(union, None)
                if item is None:
                    return
                yield item
        # Where each head value is read from: (component, position in its
        # key); on a shared variable the later component wins.
        where = {
            v: (index, position)
            for index, (out_vars, _) in enumerate(components)
            for position, v in enumerate(out_vars)
        }
        yield from self._cartesian(components, [where[v] for v in self.head], (), 1)

    def _cartesian(
        self,
        components: List[_Component],
        picks: List[Tuple[int, int]],
        keys: Tuple[ValueTuple, ...],
        mult: int,
    ) -> Iterator[Tuple[ValueTuple, int]]:
        """Product across connected components (Figure 16 with empty context)."""
        if len(keys) == len(components):
            yield tuple([keys[index][position] for index, position in picks]), mult
            return
        union = _union(components[len(keys)][1])
        while True:
            self._check_valid()
            item = next(union, None)
            if item is None:
                return
            yield from self._cartesian(components, picks, keys + (item[0],), mult * item[1])

    def lookup(self, tup: ValueTuple) -> int:
        """Multiplicity of one fully-specified head tuple.

        The point-lookup counterpart of full enumeration: per connected
        component, the tuple's multiplicity is the sum over that component's
        strategy trees (their valuations are disjoint, exactly as in the
        Union algorithm); across components it is the product (the Product
        algorithm with every variable fixed).  Cost is a constant number of
        view lookups plus heavy-indicator passes — never an enumeration —
        within the ``O(N^{1−ε})`` budget of Proposition 22.
        """
        position = {v: p for p, v in enumerate(self.head)}
        components = self._components()
        total = 1 if components else 0
        for out_vars, trees in components:
            key = tuple([tup[position[v]] for v in out_vars])
            total *= sum(lookup(key) for _, lookup in trees)
            if total == 0:
                return 0
        return total

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[ValueTuple, int]:
        """Materialize the enumeration into ``{tuple: multiplicity}``."""
        return {tup: mult for tup, mult in self}

    def count_distinct(self) -> int:
        """Number of distinct result tuples."""
        return sum(1 for _ in self)
