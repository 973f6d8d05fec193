"""Relation storage against a plain ``{tuple: multiplicity}`` model.

A Hypothesis property drives one :class:`~repro.data.relation.Relation`
and a plain dict model through the same random interleaving of inserts,
deletes, clears, multiplicity writes, index builds and drops, probes and
index-carrying copies, and after every step diffs content and enumeration
order, and every held index — ``slice`` / ``slice_size`` /
``contains_key`` / ``distinct_keys`` — against projections of the model.
An over-delete must raise :class:`~repro.exceptions.RejectedUpdateError`
at exactly the step where the model goes negative.  An engine-level test
replays a rebalance-heavy workload, retune included, against the naive
oracle.

Also pins the key-normalisation contract at its audited call sites:
``ensure_index`` (and everything routed through it) normalises the *schema*
to relation order, so key tuples must be built in relation-schema order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import HierarchicalEngine
from repro.data.partition import Partition
from repro.data.relation import Relation
from repro.data.schema import Projector
from repro.engine.evaluator import evaluate_query_naive
from repro.exceptions import RejectedUpdateError
from repro.workloads.scenarios import get_scenario

SCHEMA = ("A", "B")
KEY_SCHEMAS = (("A",), ("B",), ("A", "B"))

# 1 == 1.0 == True: equal values are one key in the model and the relation
_values = st.sampled_from([0, 1, 2, 3, True, 1.0, 2.0, "x", "y", 1 << 50])
_tuples = st.tuples(_values, _values)
_key_schemas = st.sampled_from(KEY_SCHEMAS)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("delta"), _tuples, st.integers(-2, 3)),
        st.tuples(st.just("set"), _tuples, st.integers(-1, 3)),
        st.tuples(st.just("index"), _key_schemas),
        st.tuples(st.just("probe"), _key_schemas, _tuples),
        st.tuples(st.just("invalidate")),
        st.tuples(st.just("copy")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _model_delta(model, tup, delta):
    """Apply ``delta`` to the model; False when it would go negative."""
    updated = model.get(tup, 0) + delta
    if updated < 0:
        return False
    if updated == 0:
        model.pop(tup, None)
    else:
        # an equal key already present keeps its spelling and position
        model[tup] = updated
    return True


def _assert_matches(relation, model):
    assert list(relation.items()) == list(model.items())
    assert len(relation) == len(model)
    for key_schema in list(relation._indexes):
        project = Projector(SCHEMA, key_schema)
        keys = list(relation.distinct_keys(key_schema))
        assert len(keys) == len(set(keys)) == len({project(t) for t in model})
        assert set(keys) == {project(t) for t in model}
        for key in keys:
            group = [t for t in model if project(t) == key]
            assert list(relation.slice(key_schema, key)) == group
            assert list(relation._indexes[key_schema].group_items(key)) == [
                (t, model[t]) for t in group
            ]
            assert relation.slice_size(key_schema, key) == len(group)
            assert relation.contains_key(key_schema, key)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=_operations)
def test_relation_matches_a_plain_multiplicity_model(operations):
    relation = Relation("R", SCHEMA)
    model = {}
    for op in operations:
        kind = op[0]
        if kind == "delta":
            _, tup, delta = op
            expected = model.get(tup, 0) + delta
            if _model_delta(model, tup, delta):
                assert relation.apply_delta(tup, delta) == expected
            else:
                with pytest.raises(RejectedUpdateError):
                    relation.apply_delta(tup, delta)
        elif kind == "set":
            _, tup, mult = op
            if mult < 0:
                with pytest.raises(ValueError):
                    relation.set_multiplicity(tup, mult)
            else:
                _model_delta(model, tup, mult - model.get(tup, 0))
                relation.set_multiplicity(tup, mult)
        elif kind == "index":
            relation.ensure_index(op[1])
        elif kind == "probe":
            _, key_schema, tup = op
            project = Projector(SCHEMA, key_schema)
            key = project(tup)
            group = [t for t in model if project(t) == key]
            assert relation.contains_key(key_schema, key) == bool(group)
            assert relation.slice_size(key_schema, key) == len(group)
            assert list(relation.slice(key_schema, key)) == group
        elif kind == "invalidate":
            relation.invalidate_indexes()
        elif kind == "copy":
            # a copy carrying every held index is the same relation
            relation = relation.copy_with_indexes(tuple(relation._indexes))
        else:
            relation.clear()
            model.clear()
        _assert_matches(relation, model)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    epsilon=st.sampled_from([0.1, 0.3, 0.5]),
)
def test_engine_matches_the_oracle_across_rebalances_and_retune(seed, epsilon):
    """The adversarial scenario flip-flops one join key across the
    heavy/light threshold, forcing minor and major rebalances; a mid-stream
    retune to a different ε exercises the strict repartition path as well.
    The result must equal the naive oracle before and after the retune."""
    scenario = get_scenario("adversarial")
    database = scenario.make_database(seed=seed, scale=0.2)
    updates = list(scenario.make_stream(database, count=120, seed=seed))
    engine = HierarchicalEngine(scenario.query, epsilon=epsilon).load(database.copy())
    for position, update in enumerate(updates):
        engine.apply(update)
        database.relation(update.relation).apply_delta(
            update.tuple, update.multiplicity
        )
        if position == len(updates) // 2:
            engine.retune(0.7)
            truth = evaluate_query_naive(engine.query, database).as_dict()
            assert dict(engine.enumerate()) == truth
    truth = evaluate_query_naive(engine.query, database).as_dict()
    assert dict(engine.enumerate()) == truth
    engine.check_invariants()


# ----------------------------------------------------------------------
# key-normalisation pins (audited slice/slice_size/contains_key callers)
# ----------------------------------------------------------------------

@pytest.fixture
def relation():
    rel = Relation("R", ("A", "B"))
    rel.apply_delta((1, 2), 1)
    rel.apply_delta((1, 3), 1)
    rel.apply_delta((4, 2), 1)
    return rel


def test_ensure_index_normalises_caller_schema_order(relation):
    # Logically equal requests share one index object...
    assert relation.ensure_index(("B", "A")) is relation.ensure_index(("A", "B"))
    # ...and its key tuples are in relation-schema order regardless of how
    # the caller spelled the schema: (A=1, B=2), never (B=2, A=1).
    assert relation.contains_key(("B", "A"), (1, 2))
    assert not relation.contains_key(("B", "A"), (2, 1))
    assert relation.slice_size(("B", "A"), (1, 2)) == 1
    assert relation.ensure_index(("B", "A")).key_of((1, 2)) == (1, 2)


def test_partition_normalises_key_schema(relation):
    # Partition.__init__ reorders the caller's key set into schema order;
    # every degree/containment helper then passes self.keys down, so the
    # key tuples it builds (via key_of) are schema-ordered by construction.
    partition = Partition(relation, ("B", "A"))
    assert partition.keys == ("A", "B")
    assert partition.key_of((1, 2)) == (1, 2)
    assert partition.base_degree((1, 2)) == 1
    single = Partition(relation, ("B",))
    assert single.keys == ("B",)
    assert single.base_degree((2,)) == 2
