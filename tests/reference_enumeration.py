"""The tree-walking enumeration interpreter, kept as the order oracle.

This is the code ``repro.enumeration`` consisted of before enumeration was
compiled per view-tree shape (``iterators.py``, ``lookup.py``, the recursive
``UnionIterator`` and the component/source glue of ``result.py``), moved
here unchanged: it interprets the view tree per tuple with assignment
dicts.  Enumeration *order* is a contract (recovery byte-identity, snapshot
== live order, the sharded canonical merge), so the compiled plans are
tested against this interpreter as sequences, never against themselves —
see ``tests/test_enumeration_plan.py``.

Entry points: :func:`reference_enumerate` (what ``ResultEnumerator``
iterated) and :func:`lookup_head_multiplicity` (what point lookups used).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Iterator as TypingIterator, List, Mapping, Optional, Sequence, Tuple

from repro.data.schema import ValueTuple
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.exceptions import EnumerationError
from repro.views.view import IndicatorLeaf, ViewTreeNode


# ----------------------------------------------------------------------
# union.py: the recursive Union (one nested iterator per source)
# ----------------------------------------------------------------------
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
    """Distinct-tuple enumeration of the union of several sources."""

    def __init__(self, sources: Sequence[UnionSource]) -> None:
        if not sources:
            raise ValueError("UnionIterator needs at least one source")
        self._sources: Tuple[UnionSource, ...] = tuple(sources)
        if len(self._sources) == 1:
            self._left: Optional[UnionIterator] = None
            self._left_sources: Tuple[UnionSource, ...] = ()
            self._last: UnionSource = self._sources[0]
        else:
            self._left = UnionIterator(self._sources[:-1])
            self._left_sources = self._sources[:-1]
            self._last = self._sources[-1]
        self._left_exhausted = False

    # ------------------------------------------------------------------
    def lookup(self, key: ValueTuple) -> int:
        """Total multiplicity of ``key`` across all sources."""
        return sum(source.lookup(key) for source in self._sources)

    def _total_with_left(self, key: ValueTuple, last_mult: int) -> int:
        return last_mult + sum(source.lookup(key) for source in self._left_sources)

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        if self._left is None:
            return self._last.next()
        while not self._left_exhausted:
            item = self._left.next()
            if item is None:
                self._left_exhausted = True
                break
            key, left_mult = item
            last_mult = self._last.lookup(key)
            if last_mult == 0:
                return key, left_mult
            nxt = self._last.next()
            if nxt is None:
                # Defensive: the invariant guarantees the last source is not
                # exhausted while collisions remain; fall back to emitting the
                # collided tuple with its full multiplicity.
                return key, left_mult + last_mult
            last_key, mult = nxt
            return last_key, self._total_with_left(last_key, mult)
        nxt = self._last.next()
        if nxt is None:
            return None
        last_key, mult = nxt
        return last_key, self._total_with_left(last_key, mult)


# ----------------------------------------------------------------------
# the probe of engine/join.py's former BoundRelation
# ----------------------------------------------------------------------
def _matching(
    bound: Tuple[Schema, Relation], assignment: Mapping[str, object]
) -> TypingIterator[Tuple[ValueTuple, int]]:
    """Entries of a ``(schema, relation)`` pair agreeing with ``assignment``.

    A point lookup when the assignment fixes every variable, the whole
    relation when it fixes none, otherwise the index group on the fixed
    variables (index columns in schema order).
    """
    variables, relation = bound
    positions = [p for p, v in enumerate(variables) if v in assignment]
    if len(positions) == len(variables):
        tup = tuple(assignment[v] for v in variables)
        mult = relation.multiplicity(tup)
        if mult:
            yield tup, mult
        return
    if not positions:
        yield from relation.items()
        return
    columns = tuple(relation.schema[p] for p in positions)
    key = tuple(assignment[variables[p]] for p in positions)
    yield from relation.ensure_index(columns).group_items(key)


# ----------------------------------------------------------------------
# lookup.py
# ----------------------------------------------------------------------
def _direct_lookup(
    tree: ViewTreeNode, assignment: Mapping[str, object]
) -> int:
    """Multiplicity of the assignment in the node's own materialized content."""
    bound = (tree.schema, tree.relation())
    missing = [v for v in tree.schema if v not in assignment]
    if not missing:
        return bound[1].multiplicity(tuple(assignment[v] for v in tree.schema))
    # Defensive fallback: some schema variable is not fixed by the assignment
    # (this does not happen for the trees built by τ, but keeps the function
    # total); aggregate over the matching entries.
    total = 0
    for _tup, mult in _matching(bound, assignment):
        total += mult
    return total


def lookup_head_multiplicity(
    component_trees, head, tup
) -> int:
    """Multiplicity of one fully-specified head tuple across components.

    The point-lookup counterpart of full enumeration: per connected
    component, the tuple's multiplicity is the sum over that component's
    strategy trees (their valuations are disjoint, exactly as in the Union
    algorithm); across components it is the product (the Product
    algorithm with every variable fixed).  Cost is a constant number of
    view lookups plus heavy-indicator passes — never an enumeration — so
    the aggregate answer path can probe single groups within the
    ``O(N^{1−ε})`` budget of Proposition 22.
    """
    assignment = dict(zip(head, tup))
    free = frozenset(head)
    total = 1
    for trees in component_trees:
        component_total = 0
        for tree in trees:
            component_total += lookup_multiplicity(tree, free, assignment)
        if component_total == 0:
            return 0
        total *= component_total
    return total


def lookup_multiplicity(
    tree: ViewTreeNode,
    free: FrozenSet[str],
    assignment: Mapping[str, object],
) -> int:
    """Multiplicity of ``assignment`` (covering the tree's free variables)
    in the join encoded by ``tree``.

    The recursion mirrors the enumeration cases: views that already cover all
    free variables of their subtree are probed directly; views with a heavy
    indicator child sum over the matching heavy keys; all other views
    factorise into the product of their children's lookups (the children only
    share variables that are fixed by the assignment).
    """
    free_in_subtree = tree.variables() & free
    if tree.is_leaf() or free_in_subtree <= set(tree.schema):
        return _direct_lookup(tree, assignment)
    indicator = next(
        (c for c in tree.children if isinstance(c, IndicatorLeaf)), None
    )
    if indicator is not None:
        others = [c for c in tree.children if c is not indicator]
        bound = (indicator.schema, indicator.relation())
        total = 0
        for key_tuple, _mult in _matching(bound, assignment):
            grounded: Dict[str, object] = dict(assignment)
            grounded.update(zip(indicator.schema, key_tuple))
            product = 1
            for child in others:
                product *= lookup_multiplicity(child, free, grounded)
                if product == 0:
                    break
            total += product
        return total
    product = 1
    for child in tree.children:
        product *= lookup_multiplicity(child, free, assignment)
        if product == 0:
            return 0
    return product


# ----------------------------------------------------------------------
# iterators.py
# ----------------------------------------------------------------------
Assignment = Dict[str, object]


class TreeIterator(UnionSource):
    """Common interface of all view-tree iterators."""

    def __init__(self, free_order: Tuple[str, ...]) -> None:
        self.free_order = free_order
        self.out_vars: Tuple[str, ...] = ()
        self._ctx: Assignment = {}
        self._opened = False

    # -- protocol ----------------------------------------------------------
    def open(self, ctx: Mapping[str, object]) -> None:
        raise NotImplementedError

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        raise NotImplementedError

    def lookup(self, key: ValueTuple) -> int:
        raise NotImplementedError

    def close(self) -> None:
        self._opened = False

    # -- helpers -------------------------------------------------------------
    def _require_open(self) -> None:
        if not self._opened:
            raise EnumerationError("iterator used before open()")

    def _set_context(self, ctx: Mapping[str, object], subtree_vars: FrozenSet[str]) -> None:
        self._ctx = dict(ctx)
        free_in_subtree = [v for v in self.free_order if v in subtree_vars]
        self.out_vars = tuple(v for v in free_in_subtree if v not in self._ctx)
        self._opened = True

    def _key_to_assignment(self, key: ValueTuple) -> Assignment:
        assignment = dict(self._ctx)
        assignment.update(zip(self.out_vars, key))
        return assignment


class DirectIterator(TreeIterator):
    """Enumerate straight from a view whose schema covers the subtree's free vars."""

    def __init__(self, tree: ViewTreeNode, free_order: Tuple[str, ...]) -> None:
        super().__init__(free_order)
        self.tree = tree
        self._subtree_vars = tree.variables()
        self._free_set = frozenset(free_order)
        self._stream: Optional[TypingIterator[Tuple[ValueTuple, int]]] = None

    def open(self, ctx: Mapping[str, object]) -> None:
        self._set_context(ctx, self._subtree_vars)
        bound = (self.tree.schema, self.tree.relation())
        probe = {v: ctx[v] for v in self.tree.schema if v in ctx}
        out_positions = [
            self.tree.schema.index(v) for v in self.out_vars
        ]
        extra = [
            v
            for v in self.tree.schema
            if v not in probe and v not in self._free_set
        ]
        if not extra:
            def stream() -> TypingIterator[Tuple[ValueTuple, int]]:
                for tup, mult in _matching(bound, probe):
                    yield tuple(tup[i] for i in out_positions), mult

            self._stream = stream()
        else:
            # Defensive fallback (not reached for τ-built trees): aggregate
            # over the non-free, non-context variables before enumerating.
            grouped: Dict[ValueTuple, int] = {}
            for tup, mult in _matching(bound, probe):
                key = tuple(tup[i] for i in out_positions)
                grouped[key] = grouped.get(key, 0) + mult
            self._stream = iter(grouped.items())

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        self._require_open()
        assert self._stream is not None
        return next(self._stream, None)

    def lookup(self, key: ValueTuple) -> int:
        return lookup_multiplicity(
            self.tree, self._free_set, self._key_to_assignment(key)
        )


class ProductIterator(TreeIterator):
    """Cartesian product of child iterators under a shared context (Figure 16)."""

    def __init__(
        self, children: Sequence[TreeIterator], free_order: Tuple[str, ...]
    ) -> None:
        super().__init__(free_order)
        self.children: Tuple[TreeIterator, ...] = tuple(children)
        self._current: List[Optional[Tuple[ValueTuple, int]]] = []
        self._exhausted = False

    def open(self, ctx: Mapping[str, object]) -> None:
        self._ctx = dict(ctx)
        self._opened = True
        self._exhausted = False
        self._current = []
        out: List[str] = []
        for child in self.children:
            child.open(ctx)
            out.extend(v for v in child.out_vars if v not in out)
        self.out_vars = tuple(v for v in self.free_order if v in out)
        # prime the odometer: every child must produce at least one tuple
        for child in self.children:
            item = child.next()
            if item is None:
                self._exhausted = True
                return
            self._current.append(item)
        self._primed = True
        self._first = True

    def _emit(self) -> Tuple[ValueTuple, int]:
        assignment: Assignment = {}
        mult = 1
        for child, item in zip(self.children, self._current):
            key, child_mult = item  # type: ignore[misc]
            assignment.update(zip(child.out_vars, key))
            mult *= child_mult
        return tuple(assignment[v] for v in self.out_vars), mult

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        self._require_open()
        if self._exhausted:
            return None
        if not self.children:
            if self._first:
                self._first = False
                return (), 1
            return None
        if self._first:
            self._first = False
            return self._emit()
        # advance the odometer starting from the last child
        position = len(self.children) - 1
        while position >= 0:
            item = self.children[position].next()
            if item is not None:
                self._current[position] = item
                for later in range(position + 1, len(self.children)):
                    child = self.children[later]
                    child.close()
                    child.open(self._ctx)
                    first = child.next()
                    if first is None:  # pragma: no cover - cannot happen once primed
                        self._exhausted = True
                        return None
                    self._current[later] = first
                return self._emit()
            position -= 1
        self._exhausted = True
        return None

    def lookup(self, key: ValueTuple) -> int:
        assignment = self._key_to_assignment(key)
        total = 1
        for child in self.children:
            child_key = tuple(assignment[v] for v in child.out_vars)
            total *= child.lookup(child_key)
            if total == 0:
                return 0
        return total


class IterateIterator(TreeIterator):
    """Iterate the root view's matching entries, producing a Product per entry."""

    def __init__(self, tree: ViewTreeNode, free_order: Tuple[str, ...]) -> None:
        super().__init__(free_order)
        self.tree = tree
        self._free_set = frozenset(free_order)
        self._subtree_vars = tree.variables()
        self._child_iterators = tuple(
            build_iterator(child, free_order) for child in tree.children
        )
        self._entries: Optional[TypingIterator[Tuple[ValueTuple, int]]] = None
        self._product: Optional[ProductIterator] = None
        self._entry_assignment: Assignment = {}

    def open(self, ctx: Mapping[str, object]) -> None:
        self._set_context(ctx, self._subtree_vars)
        bound = (self.tree.schema, self.tree.relation())
        probe = {v: ctx[v] for v in self.tree.schema if v in ctx}
        self._entries = _matching(bound, probe)
        self._product = None

    def _advance_entry(self) -> bool:
        assert self._entries is not None
        item = next(self._entries, None)
        if item is None:
            return False
        tup, _mult = item
        self._entry_assignment = dict(self._ctx)
        self._entry_assignment.update(zip(self.tree.schema, tup))
        product = ProductIterator(self._child_iterators, self.free_order)
        product.open(self._entry_assignment)
        self._product = product
        return True

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        self._require_open()
        while True:
            if self._product is None:
                if not self._advance_entry():
                    return None
            assert self._product is not None
            item = self._product.next()
            if item is None:
                self._product = None
                continue
            key, mult = item
            assignment = dict(self._entry_assignment)
            assignment.update(zip(self._product.out_vars, key))
            return tuple(assignment[v] for v in self.out_vars), mult

    def lookup(self, key: ValueTuple) -> int:
        return lookup_multiplicity(
            self.tree, self._free_set, self._key_to_assignment(key)
        )


class GroundedIterator(TreeIterator):
    """Ground a heavy indicator and Union the per-key buckets (Figures 13–14)."""

    def __init__(self, tree: ViewTreeNode, free_order: Tuple[str, ...]) -> None:
        super().__init__(free_order)
        self.tree = tree
        self._free_set = frozenset(free_order)
        self._subtree_vars = tree.variables()
        self.indicator = next(
            c for c in tree.children if isinstance(c, IndicatorLeaf)
        )
        self.others = tuple(c for c in tree.children if c is not self.indicator)
        self._union: Optional[UnionIterator] = None

    def open(self, ctx: Mapping[str, object]) -> None:
        self._set_context(ctx, self._subtree_vars)
        bound = (self.indicator.schema, self.indicator.relation())
        probe = {v: ctx[v] for v in self.indicator.schema if v in ctx}
        buckets: List[_Bucket] = []
        for key_tuple, _mult in _matching(bound, probe):
            grounded_ctx = dict(ctx)
            grounded_ctx.update(zip(self.indicator.schema, key_tuple))
            buckets.append(
                _Bucket(self.others, grounded_ctx, self.free_order, self._free_set)
            )
        self._buckets = buckets
        self._union = UnionIterator(buckets) if buckets else None

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        self._require_open()
        if self._union is None:
            return None
        return self._union.next()

    def lookup(self, key: ValueTuple) -> int:
        return lookup_multiplicity(
            self.tree, self._free_set, self._key_to_assignment(key)
        )


class _Bucket(UnionSource):
    """One grounded instance of a view tree: the Product of the non-indicator
    children under a context extended with one heavy key."""

    def __init__(
        self,
        children: Sequence[ViewTreeNode],
        ctx: Assignment,
        free_order: Tuple[str, ...],
        free_set: FrozenSet[str],
    ) -> None:
        self._children = tuple(children)
        self._ctx = ctx
        self._free_set = free_set
        self._product = ProductIterator(
            tuple(build_iterator(child, free_order) for child in children),
            free_order,
        )
        self._product.open(ctx)

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        return self._product.next()

    def lookup(self, key: ValueTuple) -> int:
        assignment = dict(self._ctx)
        assignment.update(zip(self._product.out_vars, key))
        total = 1
        for child in self._children:
            total *= lookup_multiplicity(child, self._free_set, assignment)
            if total == 0:
                return 0
        return total


def build_iterator(
    tree: ViewTreeNode, free_order: Tuple[str, ...]
) -> TreeIterator:
    """Choose the iterator kind for a view-tree node (cases of Figure 13)."""
    free_set = set(free_order)
    free_in_subtree = tree.variables() & free_set
    if tree.is_leaf() or free_in_subtree <= set(tree.schema):
        return DirectIterator(tree, free_order)
    if any(isinstance(child, IndicatorLeaf) for child in tree.children):
        return GroundedIterator(tree, free_order)
    return IterateIterator(tree, free_order)


# ----------------------------------------------------------------------
# result.py: the component/source glue
# ----------------------------------------------------------------------
class _TreeSource(UnionSource):
    """A strategy tree opened with the empty context, seen as a union source."""

    def __init__(self, tree: ViewTreeNode, free_order: Tuple[str, ...]) -> None:
        self.tree = tree
        self.free_order = free_order
        self._free_set = frozenset(free_order)
        self.iterator: TreeIterator = build_iterator(tree, free_order)
        self.iterator.open({})
        self.out_vars = self.iterator.out_vars

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        return self.iterator.next()

    def lookup(self, key: ValueTuple) -> int:
        assignment = dict(zip(self.out_vars, key))
        return lookup_multiplicity(self.tree, self._free_set, assignment)


class _ComponentEnumerator:
    """Union of the strategy trees of one connected component."""

    def __init__(self, trees: Sequence[ViewTreeNode], free_order: Tuple[str, ...]) -> None:
        self.trees = tuple(trees)
        self.free_order = free_order
        self.reset()

    def reset(self) -> None:
        self._sources = [_TreeSource(tree, self.free_order) for tree in self.trees]
        self.out_vars = self._sources[0].out_vars if self._sources else ()
        self._union = UnionIterator(self._sources) if self._sources else None

    def next(self) -> Optional[Tuple[ValueTuple, int]]:
        if self._union is None:
            return None
        return self._union.next()


def reference_enumerate(
    component_trees, head: Tuple[str, ...]
) -> Iterator[Tuple[ValueTuple, int]]:
    """``ResultEnumerator._iterate`` without validator, telemetry and timing."""
    head = tuple(head)
    components = [_ComponentEnumerator(trees, head) for trees in component_trees]
    if not components:
        return
    if len(components) == 1:
        component = components[0]
        component.reset()
        while True:
            item = component.next()
            if item is None:
                return
            key, mult = item
            yield _reorder(head, component.out_vars, key), mult
        return
    yield from _cartesian(components, head, 0, {}, 1)


def _cartesian(
    components, head, index: int, assignment: Dict[str, object], mult: int
) -> Iterator[Tuple[ValueTuple, int]]:
    """Product across connected components (Figure 16 with empty context)."""
    if index == len(components):
        yield tuple(assignment[v] for v in head), mult
        return
    component = components[index]
    component.reset()
    while True:
        item = component.next()
        if item is None:
            return
        key, component_mult = item
        extended = dict(assignment)
        extended.update(zip(component.out_vars, key))
        yield from _cartesian(components, head, index + 1, extended, mult * component_mult)


def _reorder(head, out_vars: Tuple[str, ...], key: ValueTuple) -> ValueTuple:
    if out_vars == head:
        return key
    assignment = dict(zip(out_vars, key))
    return tuple(assignment[v] for v in head)
