"""The commutative-ring payload layer: laws, specs, folds, the one state.

Every registered ring must satisfy the abelian-group laws the engine
relies on (a broken law would silently corrupt every maintained
aggregate), `AggregateSpec` must have a stable identity and a faithful
wire form, the module-level folds must implement the one true definition
of "aggregate of an enumeration", and the `{group: (support, element)}`
shape must merge, travel and answer the same way everywhere — including
for values its ring cannot lift.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.exceptions import SchemaError
from repro.rings import (
    AggregateSpec,
    MaintainedAggregate,
    Unliftable,
    answer_map,
    check_ring_laws,
    fold_delta,
    fold_result,
    get_ring,
    merge_elements,
    ring_names,
    unwire_elements,
    wire_elements,
)

#: Lawful ``(value, multiplicity)`` samples per registered ring —
#: positive, repeated, and negative multiplicities, plus float values
#: where the ring accepts them.
RING_SAMPLES = {
    "counting": [(None, 1), (None, 2), (None, -3)],
    "sum": [(1, 1), (2.5, 2), (7, -3), (0.1, 1)],
    "min": [(1, 1), (2, 2), (5, -1)],
    "max": [(3, 1), (3, 2), (-4, -2)],
    "sum_product": [((2, 3), 1), ((1.5, 2), 2), ((4,), -1)],
}


def test_every_registered_ring_is_lawful():
    assert set(RING_SAMPLES) == set(ring_names()), (
        "a ring was (de)registered without a law sample set"
    )
    for name, samples in RING_SAMPLES.items():
        check_ring_laws(get_ring(name), samples)


def test_get_ring_resolves_instances_and_rejects_unknown_names():
    ring = get_ring("sum")
    assert get_ring(ring) is ring
    with pytest.raises(KeyError, match="unknown ring"):
        get_ring("median")


def test_sum_ring_cancellation_is_exact_under_floats():
    ring = get_ring("sum")
    # (1e16 + 1.1) - 1e16 - 1.1 != 0.0 in float arithmetic; the ring
    # escalates to Fraction on the first float, so insert/delete churn
    # cancels exactly in any order
    assert (1e16 + 1.1) - 1e16 - 1.1 != 0.0
    total = ring.zero()
    for value, mult in [(1e16, 1), (1.1, 1), (1e16, -1), (1.1, -1)]:
        total = ring.add(total, ring.lift(value, mult))
    assert ring.is_zero(total)
    # integer-only elements stay int; answers render Fractions as float
    assert ring.lift(3, 2) == 6 and isinstance(ring.lift(3, 2), int)
    assert ring.answer(ring.lift(0.5, 3)) == 1.5
    with pytest.raises(TypeError, match="numeric"):
        ring.lift("price", 1)


def test_sum_ring_wire_form_survives_json_exactly():
    ring = get_ring("sum")
    element = ring.add(ring.lift(0.1, 1), ring.lift(10**20, 1))
    assert isinstance(element, Fraction)
    wire = json.loads(json.dumps(ring.to_wire(element)))
    assert ring.from_wire(wire) == element


def test_extremum_rings_rederive_on_retraction():
    ring = get_ring("max")
    element = ring.add(ring.lift(5, 1), ring.lift(3, 2))
    assert ring.answer(element) == 5
    # retracting the current maximum re-derives over surviving support
    element = ring.add(element, ring.lift(5, -1))
    assert ring.answer(element) == 3
    element = ring.add(element, ring.lift(3, -2))
    assert ring.is_zero(element) and ring.answer(element) is None
    assert get_ring("min").answer({2: 1, 7: 1}) == 2
    with pytest.raises(TypeError, match="needs a value"):
        ring.lift(None, 1)


def test_sum_product_ring_multiplies_factors_then_scales():
    ring = get_ring("sum_product")
    assert ring.lift((2, 3), 2) == 12
    assert ring.lift(5, 1) == 5  # a bare value is a one-factor product
    assert ring.answer(ring.add(ring.lift((0.5, 4), 1), ring.lift((1, 1), -2))) == 0.0


# ----------------------------------------------------------------------
# AggregateSpec: identity, wire form, head binding
# ----------------------------------------------------------------------
def test_spec_identity_deduplicates_and_wire_roundtrips():
    spec = AggregateSpec("sum", "C", ("A",))
    twin = AggregateSpec(get_ring("sum"), "C", ["A"])
    assert spec.key() == twin.key()
    assert spec.key() != AggregateSpec("sum", "C", ("A", "B")).key()
    wired = AggregateSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
    assert wired.key() == spec.key()
    tupled = AggregateSpec("sum_product", ("A", "C"))
    assert AggregateSpec.from_wire(tupled.to_wire()).key() == tupled.key()


def test_spec_callable_values_work_locally_but_refuse_the_wire():
    spec = AggregateSpec("sum", lambda tup: tup[0] * 2)
    assert spec.value_extractor(("A", "C"))((3, 9)) == 6
    with pytest.raises(TypeError, match="cannot cross"):
        spec.to_wire()


def test_spec_head_binding_rejects_bad_selectors():
    head = ("A", "C")
    assert AggregateSpec("sum", "C").group_positions(head) == ()
    assert AggregateSpec("counting", None, ("C", 0)).group_positions(head) == (1, 0)
    with pytest.raises(SchemaError, match="not in the query head"):
        AggregateSpec("sum", "Z").value_extractor(head)
    with pytest.raises(SchemaError, match="out of range"):
        AggregateSpec("sum", 2).value_extractor(head)
    with pytest.raises(SchemaError, match="invalid head selector"):
        AggregateSpec("sum", True).value_extractor(head)


# ----------------------------------------------------------------------
# folds and the maintained state
# ----------------------------------------------------------------------
def test_fold_delta_keeps_support_neutral_churn_fold_result_drops_it():
    spec = AggregateSpec("sum", "V", ("G",))
    head = ("G", "V")
    # one group swaps value 3 for value 5: support delta 0, element delta 2
    churn = [(("a", 5), 1), (("a", 3), -1)]
    delta = fold_delta(spec, head, churn)
    assert delta == {("a",): (0, 2)}
    assert fold_result(spec, head, churn) == {}
    # a sum cancelling to zero with live support is kept with answer 0
    cancel = [(("b", 4), 1), (("b", -4), 1)]
    folded = fold_result(spec, head, cancel)
    assert folded == {("b",): (2, 0)}
    assert answer_map(spec, folded) == {("b",): 0}


def test_maintained_aggregate_tracks_deltas_and_drops_drained_groups():
    spec = AggregateSpec("max", "V", ("G",))
    state = MaintainedAggregate(spec, ("G", "V"))
    state.rebuild([(("a", 5), 1), (("a", 3), 1), (("b", 7), 2)])
    assert answer_map(spec, state.elements()) == {("a",): 5, ("b",): 7}
    assert len(state.groups) == 2
    state.on_delta({("a", 5): -1})  # retraction re-derives
    state.on_delta({("b", 7): -2})  # drained group disappears
    assert answer_map(spec, state.elements()) == {("a",): 3}
    assert state.elements() == {("a",): (1, {3: 1})}
    state.rebuild([(("c", 1), 1)])
    assert answer_map(spec, state.elements()) == {("c",): 1}


def test_merge_elements_adds_supports_and_elements_and_drops_drained_groups():
    ring = get_ring("sum")
    state = {("a",): (2, 10), ("b",): (1, 4)}
    merged = merge_elements(ring, state, [(("a",), (1, 5)), (("b",), (-1, -4)), (("c",), (3, 0))])
    assert merged is state
    assert state == {("a",): (3, 15), ("c",): (3, 0)}
    # partials merge like deltas: shard-style sums of positive supports
    total = {}
    for partial in ({("a",): (1, 2)}, {("a",): (2, 3), ("b",): (1, 1)}):
        merge_elements(ring, total, partial.items())
    assert total == {("a",): (3, 5), ("b",): (1, 1)}


def test_wire_elements_round_trip_through_json_for_every_ring():
    specs = (
        AggregateSpec("counting", None, ("G",)),
        AggregateSpec("sum", "V", ("G",)),
        AggregateSpec("max", "V", ("G",)),
        AggregateSpec("sum_product", ("V", "V"), ("G",)),
    )
    pairs = [(("a", 0.5), 2), (("a", 3), 1), (("b", 10**20), 1)]
    for spec in specs:
        elements = fold_result(spec, ("G", "V"), pairs)
        rows = json.loads(json.dumps(wire_elements(spec.ring, elements)))
        assert unwire_elements(spec.ring, rows) == elements, spec.describe()


def test_a_value_the_ring_cannot_lift_is_carried_exactly_and_raises_on_read():
    """The fold never raises for a rejected value: it counts the value
    next to the element, merges cancel it, and only the answer raises —
    with the ring's own error — while the value is in its group."""
    spec = AggregateSpec("sum", "V", ("G",))
    head = ("G", "V")
    state = MaintainedAggregate(spec, head)
    state.rebuild([(("a", 1), 1), (("b", 2), 1)])
    state.on_delta({("a", "x"): 2, ("b", 5): 1})
    support, element = state.groups[("a",)]
    assert support == 3 and element == Unliftable(1, {"x": 2})
    with pytest.raises(TypeError, match="numeric values, got str: 'x'"):
        answer_map(spec, state.elements())
    # the maintained state equals the fold over the same result
    result = [(("a", 1), 1), (("a", "x"), 2), (("b", 2), 1), (("b", 5), 1)]
    assert state.elements() == fold_result(spec, head, result)
    # it travels like any element
    rows = json.loads(json.dumps(wire_elements(spec.ring, state.elements())))
    assert unwire_elements(spec.ring, rows) == state.elements()
    # deleting the value cancels it: a plain element again
    state.on_delta({("a", "x"): -2})
    assert state.groups[("a",)] == (1, 1)
    assert answer_map(spec, state.elements()) == {("a",): 1, ("b",): 7}
    # so does a float no Fraction can hold
    infinite = fold_result(spec, head, [(("c", float("inf")), 1)])
    assert infinite == {("c",): (1, Unliftable(0, {float("inf"): 1}))}
    # min/max reject a missing value the same way
    extremum = AggregateSpec("max", None)
    with pytest.raises(TypeError, match="needs a value"):
        answer_map(extremum, fold_result(extremum, head, result))
    # support-neutral churn that swaps a rejected value for another still
    # reaches a delta (the element moved)
    churn = fold_delta(spec, head, [(("a", "x"), 1), (("a", "y"), -1)])
    assert churn == {("a",): (0, Unliftable(0, {"x": 1, "y": -1}))}
