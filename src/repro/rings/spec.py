"""Aggregate specifications and the maintained aggregate state.

An :class:`AggregateSpec` names *what* to aggregate over the query result:
a :class:`~repro.rings.base.Ring`, a value extractor over result tuples,
and a group-by key over the head variables.  The spec is a pure
description — it binds against a concrete query head on use, travels over
shard pipes and network frames in wire form (:meth:`AggregateSpec.to_wire`),
and has a canonical :meth:`AggregateSpec.key` so every layer that keeps a
registry of maintained aggregates deduplicates the same way.

:class:`MaintainedAggregate` is the O(1)-read state behind
``engine.aggregate()``: a :class:`~repro.data.relation.Relation` whose
tuples are the group keys, whose multiplicity is the group's *support*
(total result multiplicity — a group exists iff its support is positive),
and whose per-tuple payload (the PR-10 payload channel of both storage
backends) is the group's ring element.  Support and element are tracked
separately on purpose: a sum that cancels to the ring zero while tuples
remain in the group must still be reported with answer 0, and a group
whose support drains to 0 must disappear even when retraction left a
non-trivial element behind (it cannot, for lawful rings — but the support
is what makes that an invariant rather than an assumption).

The module-level folds (:func:`fold_result`, :func:`fold_delta`) are the
single definition of "aggregate of an enumeration": the oracle side of the
conformance checks, the ``maintained=False`` path, snapshot aggregation,
and resyncs of aggregate subscriptions all call them, so a maintained
answer is compared against the exact same fold everywhere.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.data.relation import Relation
from repro.data.schema import ValueTuple
from repro.exceptions import SchemaError
from repro.rings.base import Ring, get_ring

#: What a spec may extract from a result tuple: nothing (count-style),
#: one head variable (by name or position), a tuple of them (product
#: factors for the sum-product ring), or a local-only callable.
ValueSelector = Union[None, str, int, Tuple[Any, ...], Callable[[ValueTuple], Any]]

#: ``{group key: (support, ring element)}`` — the raw shape shared by the
#: maintained state, the folds, and per-shard partial aggregates.
Elements = Dict[ValueTuple, Tuple[int, Any]]


def _resolve_position(selector: Any, head: Tuple[str, ...]) -> int:
    """Map one head-variable selector (name or position) to a position."""
    if isinstance(selector, bool):
        raise SchemaError(f"invalid head selector {selector!r}")
    if isinstance(selector, int):
        if not -len(head) <= selector < len(head):
            raise SchemaError(
                f"head position {selector} out of range for head {head!r}"
            )
        return selector % len(head) if len(head) else selector
    if isinstance(selector, str):
        try:
            return head.index(selector)
        except ValueError:
            raise SchemaError(
                f"variable {selector!r} is not in the query head {head!r}"
            ) from None
    raise SchemaError(f"invalid head selector {selector!r}")


class AggregateSpec:
    """One aggregate over a query result: ring × value selector × group-by.

    ``value`` selects what each result tuple contributes (see
    :data:`ValueSelector`); ``group_by`` is a tuple of head variables (by
    name or position) forming the group key — ``()`` (the default) is the
    single global group.  Callable values work locally but cannot cross a
    process or network boundary (:meth:`to_wire` refuses).
    """

    __slots__ = ("ring", "value", "group_by")

    def __init__(
        self,
        ring: Union[Ring, str],
        value: ValueSelector = None,
        group_by: Optional[Iterable[Any]] = None,
    ) -> None:
        self.ring = get_ring(ring)
        if isinstance(value, list):
            value = tuple(value)
        self.value = value
        if group_by is None:
            self.group_by: Tuple[Any, ...] = ()
        elif isinstance(group_by, (str, int)):
            self.group_by = (group_by,)
        else:
            self.group_by = tuple(group_by)

    @classmethod
    def coerce(cls, ring, value=None, group_by=None) -> "AggregateSpec":
        """The spec behind every ``aggregate(ring, value, group_by)`` surface:
        ``ring`` is either a prebuilt spec (then the other two must be left
        out) or a ring to build one from."""
        if isinstance(ring, cls):
            if value is not None or group_by is not None:
                raise ValueError(
                    "pass either an AggregateSpec or ring/value/group_by, "
                    "not both"
                )
            return ring
        return cls(ring, value, group_by)

    # ------------------------------------------------------------------
    # identity / wire form
    # ------------------------------------------------------------------
    def key(self) -> Tuple:
        """Canonical identity for registries (same spec ⇒ same key)."""
        value = self.value
        if callable(value):
            value_key: Any = ("callable", id(value))
        elif isinstance(value, tuple):
            value_key = ("tuple", value)
        else:
            value_key = value
        return (self.ring.name, value_key, self.group_by)

    def describe(self) -> str:
        """Short human-readable form (used in relation names and errors)."""
        parts = [self.ring.name]
        if self.value is not None:
            parts.append(f"value={self.value!r}")
        if self.group_by:
            parts.append(f"by={self.group_by!r}")
        return " ".join(parts)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe form for shard commands and net frames."""
        value = self.value
        if callable(value):
            raise TypeError(
                "a callable aggregate value cannot cross a process or wire "
                "boundary; use a head variable name/position (or a tuple of "
                "them) instead"
            )
        wire_value: Any = list(value) if isinstance(value, tuple) else value
        return {
            "ring": self.ring.name,
            "value": wire_value,
            "group_by": list(self.group_by),
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "AggregateSpec":
        value = wire.get("value")
        if isinstance(value, list):
            value = tuple(value)
        return cls(wire["ring"], value, tuple(wire.get("group_by") or ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregateSpec({self.describe()})"

    # ------------------------------------------------------------------
    # binding against a concrete head
    # ------------------------------------------------------------------
    def group_positions(self, head: Tuple[str, ...]) -> Tuple[int, ...]:
        """Resolve the group-by selectors to head positions."""
        return tuple(_resolve_position(g, head) for g in self.group_by)

    def value_extractor(self, head: Tuple[str, ...]) -> Callable[[ValueTuple], Any]:
        """Compile the value selector to a function over result tuples."""
        value = self.value
        if value is None:
            return lambda tup: None
        if callable(value):
            return value
        if isinstance(value, tuple):
            pos = tuple(_resolve_position(v, head) for v in value)
            return lambda tup: tuple(tup[p] for p in pos)
        position = _resolve_position(value, head)
        return lambda tup: tup[position]


# ----------------------------------------------------------------------
# folds — the single definition of "aggregate of an enumeration"
# ----------------------------------------------------------------------
def fold_delta(
    spec: AggregateSpec,
    head: Tuple[str, ...],
    pairs: Iterable[Tuple[ValueTuple, int]],
) -> Elements:
    """Net per-group ``(support delta, element delta)`` of a result delta.

    Keeps every group whose support delta or element delta is non-zero,
    so a delta that only moves the element (support-neutral churn inside
    a group) still reaches subscribers and maintained states.
    """
    ring = spec.ring
    positions = spec.group_positions(head)
    extract = spec.value_extractor(head)
    folded: Elements = {}
    zero = ring.zero()
    for tup, mult in pairs:
        group = tuple(tup[p] for p in positions)
        support, element = folded.get(group, (0, zero))
        folded[group] = (
            support + mult,
            ring.add(element, ring.lift(extract(tup), mult)),
        )
    return {
        group: (support, element)
        for group, (support, element) in folded.items()
        if support != 0 or not ring.is_zero(element)
    }


def fold_result(
    spec: AggregateSpec,
    head: Tuple[str, ...],
    pairs: Iterable[Tuple[ValueTuple, int]],
) -> Elements:
    """Fold a full result enumeration into ``{group: (support, element)}``.

    Result multiplicities are strictly positive, so every folded group has
    positive support; a zero *element* (a sum that cancels) is kept — the
    group exists and its answer is the ring's zero answer.
    """
    folded = fold_delta(spec, head, pairs)
    return {
        group: (support, element)
        for group, (support, element) in folded.items()
        if support != 0
    }


def answer_map(spec: AggregateSpec, elements: Elements) -> Dict[ValueTuple, Any]:
    """User-facing ``{group: answer}`` of raw elements."""
    ring = spec.ring
    return {
        group: ring.answer(element)
        for group, (_support, element) in elements.items()
    }


# ----------------------------------------------------------------------
# the maintained state
# ----------------------------------------------------------------------
class MaintainedAggregate:
    """Relation-backed aggregate state maintained from result deltas.

    The backing relation stores one tuple per live group: multiplicity is
    the support, the payload channel carries the ring element.  Reads are
    O(groups); each commit's result delta is absorbed in O(delta).
    """

    __slots__ = ("spec", "head", "ring", "state", "_positions", "_extract")

    def __init__(self, spec: AggregateSpec, head: Iterable[str]) -> None:
        self.spec = spec
        self.head = tuple(head)
        self.ring = spec.ring
        self._positions = spec.group_positions(self.head)
        self._extract = spec.value_extractor(self.head)
        schema = tuple(f"g{i}" for i in range(len(self._positions)))
        self.state = Relation(f"agg[{spec.describe()}]", schema)

    # ------------------------------------------------------------------
    def rebuild(self, pairs: Iterable[Tuple[ValueTuple, int]]) -> None:
        """Reinitialize from a full result enumeration (one O(result) fold)."""
        self.state.clear()
        self.on_delta(pairs)

    def on_delta(self, pairs: Iterable[Tuple[ValueTuple, int]]) -> None:
        """Absorb one result delta (or any additive slice of one).

        Folds the delta per group first, then touches the state once per
        group: the net support delta can never drive a group's support
        negative (result multiplicities are non-negative), so the
        relation's over-delete rejection doubles as a corruption tripwire.
        """
        state = self.state
        ring = self.ring
        for group, (support_delta, element_delta) in fold_delta(
            self.spec, self.head, pairs
        ).items():
            old = state.payload_of(group)
            element = ring.add(old, element_delta) if old is not None else element_delta
            support = state.apply_delta(group, support_delta)
            if support != 0:
                state.set_payload(group, element)

    # ------------------------------------------------------------------
    def elements(self) -> Elements:
        """Raw ``{group: (support, element)}`` (shard-merge / wire shape)."""
        state = self.state
        zero = self.ring.zero()
        return {
            group: (support, state.payload_of(group, zero))
            for group, support in state.items()
        }

    def answers(self) -> Dict[ValueTuple, Any]:
        """User-facing ``{group: answer}`` at the current version."""
        ring = self.ring
        state = self.state
        zero = ring.zero()
        return {
            group: ring.answer(state.payload_of(group, zero))
            for group in state
        }

    def group_count(self) -> int:
        return len(self.state)
