"""Aggregate specifications and the one ``{group: (support, element)}`` state.

An :class:`AggregateSpec` names *what* to aggregate over the query result:
a :class:`~repro.rings.base.Ring`, a value extractor over result tuples,
and a group-by key over the head variables.  The spec is a pure
description — it binds against a concrete query head on use, travels over
shard pipes and network frames in wire form (:meth:`AggregateSpec.to_wire`),
and has a canonical :meth:`AggregateSpec.key` so every layer that keeps a
registry of maintained aggregates deduplicates the same way.

Everything that holds an aggregate — the engine's maintained state, a
shard's partial, a per-commit delta, a subscriber's mirror — holds the
same shape, :data:`Elements`: ``{group: (support, ring element)}``.  The
support is the group's total result multiplicity (a group exists iff it
is positive) and is kept apart from the element on purpose: a sum that
cancels to the ring zero while tuples remain in the group must still be
reported with answer 0.  Four operations are all there is to that shape:

* :func:`fold_delta` / :func:`fold_result` — the single definition of
  "aggregate of an enumeration" (the oracle side of the conformance
  checks, the ``maintained=False`` path, snapshot aggregation, and the
  per-commit payload of aggregate subscriptions all call them);
* :func:`merge_elements` — the one merge: a commit's folded delta into a
  maintained state or a mirror, a shard's partial into the merged answer;
* :func:`wire_elements` / :func:`unwire_elements` — the one wire form,
  ``[[group...], support, wire element]`` rows;
* :func:`answer_map` — the one read: ``{group: user-facing answer}``.

A result tuple whose value the spec's ring cannot lift (a string under
``sum``, ``None`` under ``min``) does not fail the fold — the fold runs
inside a commit, which must not break half-way.  Its contribution is kept
as an :class:`Unliftable` element instead, exact under every merge, and
only :func:`answer_map` raises — with the ring's own error — for as long
as the value is in its group.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

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
        """Short human-readable form (used in errors and mismatch reports)."""
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
# values the ring cannot lift
# ----------------------------------------------------------------------
class Unliftable(NamedTuple):
    """A ring element plus signed counts of values its ring rejected.

    The pair lives in the direct sum of the ring and the free abelian
    group on the rejected values, so it is an invertible element like any
    other: deleting the offending tuple cancels its count, and once no
    count is left the group holds a plain ring element again.
    """

    element: Any
    values: Dict[Any, int]


def _add_elements(ring: Ring, a: Any, b: Any) -> Any:
    """``ring.add`` extended to :class:`Unliftable` elements."""
    if type(a) is not Unliftable and type(b) is not Unliftable:
        return ring.add(a, b)
    a_element, values = a if type(a) is Unliftable else (a, {})
    b_element, b_values = b if type(b) is Unliftable else (b, {})
    values = dict(values)
    for value, count in b_values.items():
        count += values.get(value, 0)
        if count:
            values[value] = count
        else:
            del values[value]
    element = ring.add(a_element, b_element)
    return Unliftable(element, values) if values else element


def _raise_unliftable(ring: Ring, element: Unliftable) -> Any:
    """Re-raise what the ring said when the fold lifted the value."""
    value, count = next(iter(element.values.items()))
    ring.lift(value, count)
    raise TypeError(f"the {ring.name} ring cannot lift {value!r}")


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
    a group) still reaches subscribers and maintained states.  Never
    raises for a value the ring rejects (see :class:`Unliftable`).
    """
    ring = spec.ring
    lift = ring.lift
    positions = spec.group_positions(head)
    extract = spec.value_extractor(head)
    zero = ring.zero()
    folded: Elements = {}
    for tup, mult in pairs:
        group = tuple([tup[p] for p in positions])
        value = extract(tup)
        try:
            element = lift(value, mult)
        except (TypeError, ValueError, ArithmeticError):
            element = Unliftable(zero, {value: mult})
        present = folded.get(group)
        if present is None:
            folded[group] = (mult, element)
        else:
            folded[group] = (
                present[0] + mult,
                _add_elements(ring, present[1], element),
            )
    return {
        group: (support, element)
        for group, (support, element) in folded.items()
        if support != 0
        or type(element) is Unliftable
        or not ring.is_zero(element)
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


def merge_elements(
    ring: Ring,
    into: Elements,
    rows: Iterable[Tuple[ValueTuple, Tuple[int, Any]]],
) -> Elements:
    """Add ``(group, (support, element))`` rows into the state ``into``.

    The one merge: supports add as integers, elements by ring addition,
    and a group is kept iff its support stays positive.  Folds a commit's
    delta into a maintained state or a subscriber's mirror and a shard's
    partial into the merged answer — grouped aggregation is a homomorphism
    of the shard decomposition, so partials merge in O(groups).  Mutates
    and returns ``into``.
    """
    for group, (support, element) in rows:
        present = into.get(group)
        if present is not None:
            support += present[0]
            element = _add_elements(ring, present[1], element)
        if support > 0:
            into[group] = (support, element)
        elif present is not None:
            del into[group]
    return into


def answer_map(spec: AggregateSpec, elements: Elements) -> Dict[ValueTuple, Any]:
    """User-facing ``{group: answer}`` of raw elements.

    Raises the ring's error for a group holding a value it cannot lift.
    """
    ring = spec.ring
    return {
        group: (
            ring.answer(element)
            if type(element) is not Unliftable
            else _raise_unliftable(ring, element)
        )
        for group, (_support, element) in elements.items()
    }


# ----------------------------------------------------------------------
# the wire form
# ----------------------------------------------------------------------
def wire_elements(ring: Ring, elements: Elements) -> list:
    """``{group: (support, element)}`` as JSON-safe ``[[group...], support,
    wire element]`` rows — the aggregate counterpart of
    :func:`repro.net.protocol.wire_pairs`.  An :class:`Unliftable` element
    travels as ``{"element": wire, "unliftable": [[value, count], ...]}``."""
    rows = []
    for group, (support, element) in elements.items():
        if type(element) is Unliftable:
            wire: Any = {
                "element": ring.to_wire(element.element),
                "unliftable": [
                    [list(value) if isinstance(value, tuple) else value, count]
                    for value, count in element.values.items()
                ],
            }
        else:
            wire = ring.to_wire(element)
        rows.append([list(group), support, wire])
    return rows


def unwire_elements(ring: Ring, rows) -> Elements:
    """Inverse of :func:`wire_elements`."""
    elements: Elements = {}
    for group, support, wire in rows:
        if isinstance(wire, dict):
            element: Any = Unliftable(
                ring.from_wire(wire["element"]),
                {
                    tuple(value) if isinstance(value, list) else value: int(count)
                    for value, count in wire["unliftable"]
                },
            )
        else:
            element = ring.from_wire(wire)
        elements[tuple(group)] = (int(support), element)
    return elements


# ----------------------------------------------------------------------
# the maintained state
# ----------------------------------------------------------------------
class MaintainedAggregate:
    """The maintained ``{group: (support, element)}`` state of one spec.

    Reads are O(groups); each commit's result delta is folded and merged
    in O(delta).  Neither step raises for a value the ring cannot lift,
    so a registered aggregate never fails the commit that feeds it.
    """

    __slots__ = ("spec", "head", "groups")

    def __init__(self, spec: AggregateSpec, head: Iterable[str]) -> None:
        self.spec = spec
        self.head = tuple(head)
        self.groups: Elements = {}

    def rebuild(self, pairs: Iterable[Tuple[ValueTuple, int]]) -> None:
        """Reinitialize from a full result enumeration (one O(result) fold)."""
        self.groups = fold_result(self.spec, self.head, pairs)

    def on_delta(self, delta: Mapping[ValueTuple, int]) -> None:
        """Absorb one result delta (or any additive slice of one): the
        maintenance layer's result-delta listener."""
        merge_elements(
            self.spec.ring,
            self.groups,
            fold_delta(self.spec, self.head, delta.items()).items(),
        )

    def elements(self) -> Elements:
        """A copy of the state at the current version."""
        return dict(self.groups)
