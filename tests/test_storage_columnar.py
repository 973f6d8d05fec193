"""Columnar storage backend: dispatch, contract pins, and internals.

Covers the storage-contract bugfix sweep (atomic ``merge``, ``ValueError``
from negative ``set_multiplicity``) on *both* backends, plus the pieces of
the columnar layout that the observational-equivalence property cannot see
directly: value interning (including the int self-id fast path), free-list
reuse, explicit and automatic compaction, and the index-group machinery.
"""

from __future__ import annotations

import pytest

from repro.data import Relation, storage_backend
from repro.data.relation import (
    DictRelation,
    backend_class,
    get_default_backend,
    set_default_backend,
)
from repro.data.storage import (
    _COMPACT_MIN_FREE,
    _ID_MAX,
    _POOL_BASE,
    ColumnarRelation,
)
from repro.exceptions import RejectedUpdateError, SchemaError


@pytest.fixture(params=["dict", "columnar"])
def backend(request):
    with storage_backend(request.param):
        yield request.param


def make_relation(rows=None, schema=("A", "B")):
    return Relation("R", schema, rows or {})


# ----------------------------------------------------------------------
# backend dispatch
# ----------------------------------------------------------------------

def test_relation_factory_dispatches_on_default_backend(backend):
    relation = make_relation()
    assert relation.backend == backend
    assert type(relation) is backend_class(backend)


def test_direct_instantiation_pins_backend(backend):
    # Constructing a concrete class ignores the ambient default.
    assert DictRelation("R", ("A",)).backend == "dict"
    assert ColumnarRelation("R", ("A",)).backend == "columnar"


def test_set_default_backend_mirrors_environ(monkeypatch):
    import os

    previous = get_default_backend()
    try:
        set_default_backend("dict")
        assert os.environ["REPRO_STORAGE"] == "dict"
        set_default_backend("columnar")
        assert os.environ["REPRO_STORAGE"] == "columnar"
    finally:
        set_default_backend(previous)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        set_default_backend("sqlite")


def test_copy_preserves_backend_across_default_switch(backend):
    relation = make_relation({(1, 2): 3})
    other = "dict" if backend == "columnar" else "columnar"
    with storage_backend(other):
        clone = relation.copy()
    assert clone.backend == backend
    assert clone.as_dict() == {(1, 2): 3}


# ----------------------------------------------------------------------
# satellite 1: merge is validate-then-apply atomic
# ----------------------------------------------------------------------

def test_merge_rejection_leaves_target_untouched(backend):
    """Regression: a rejected negative merge must not half-apply.

    The old implementation applied entries as it iterated and only raised
    when it reached the over-deleting entry, so with the violating tuple
    *last* in ``other``'s insertion order the earlier entries were already
    deleted from the target by the time the error surfaced.
    """
    target = make_relation({(1, 1): 5, (2, 2): 5, (3, 3): 1})
    other = make_relation({(1, 1): 2, (2, 2): 2, (3, 3): 4})
    before = target.as_dict()
    with pytest.raises(RejectedUpdateError):
        target.merge(other, sign=-1)
    assert target.as_dict() == before
    assert list(target.items()) == list(before.items())


def test_merge_positive_and_valid_negative(backend):
    target = make_relation({(1, 1): 2})
    other = make_relation({(1, 1): 1, (2, 2): 3})
    target.merge(other)
    assert target.as_dict() == {(1, 1): 3, (2, 2): 3}
    target.merge(other, sign=-1)
    assert target.as_dict() == {(1, 1): 2}


def test_merge_schema_mismatch(backend):
    with pytest.raises(SchemaError):
        make_relation().merge(Relation("S", ("A", "C")))


# ----------------------------------------------------------------------
# satellite 2: negative set_multiplicity is a ValueError
# ----------------------------------------------------------------------

def test_set_multiplicity_negative_is_value_error(backend):
    """Regression: a negative target multiplicity is a caller error.

    It used to surface as :class:`RejectedUpdateError` out of the
    underlying ``apply_delta``; the contract reserves that error for
    over-deletes of well-formed updates and reports sign errors as
    :class:`ValueError` like ``insert``/``delete`` do.
    """
    relation = make_relation({(1, 2): 4})
    with pytest.raises(ValueError) as excinfo:
        relation.set_multiplicity((1, 2), -1)
    assert not isinstance(excinfo.value, RejectedUpdateError)
    assert relation.as_dict() == {(1, 2): 4}


def test_set_multiplicity_zero_removes_and_set_updates(backend):
    relation = make_relation({(1, 2): 4})
    relation.set_multiplicity((1, 2), 9)
    assert relation.multiplicity((1, 2)) == 9
    relation.set_multiplicity((3, 4), 2)
    relation.set_multiplicity((1, 2), 0)
    assert relation.as_dict() == {(3, 4): 2}


# ----------------------------------------------------------------------
# value interning
# ----------------------------------------------------------------------

def test_equal_values_collapse_like_dict_keys():
    """1, 1.0, True and Decimal('1') are one dict key — and one column id."""
    from decimal import Decimal

    with storage_backend("columnar"):
        relation = make_relation(schema=("A", "B"))
        relation.apply_delta((1, "x"), 1)
        relation.apply_delta((1.0, "x"), 1)
        relation.apply_delta((True, "x"), 1)
        relation.apply_delta((Decimal("1"), "x"), 1)
        assert relation.as_dict() == {(1, "x"): 4}
        keys = ("A",)
        assert relation.contains_key(keys, (1.0,))
        assert relation.degree_of(keys, (True, "x")) == 1


def test_tuple_addressed_probes_find_a_plain_int_through_its_float_twin():
    """A stored plain int is its own column id and never enters the interning
    pool, so a probe spelled ``2.0`` (or ``True``) misses the pool — and must
    still find the key, as the dict backend and ``contains_key`` do.  (The
    Hypothesis equivalence test found this about one run in three.)"""
    with storage_backend("columnar"):
        single = make_relation({(0, 2): 1, (5, 1): 1})
        assert single.contains_key_of(("B",), (1, 2.0))
        assert single.degree_of(("B",), (1, 2.0)) == 1
        assert single.contains_key_of(("B",), (9, True))
        assert not single.contains_key_of(("B",), (1, 2.5))
        assert single.contains_key_of(("A", "B"), (0.0, 2.0))
        assert single.degree_of(("A", "B"), (5.0, True)) == 1
        assert single.degree_of(("A", "B"), (5.0, 2.0)) == 0


def test_interning_ranges_do_not_collide():
    with storage_backend("columnar"):
        relation = make_relation(schema=("A",))
        small = 7
        big = 1 << 50  # outside the self-id range, goes through the pool
        relation.apply_delta((small,), 1)
        relation.apply_delta((big,), 1)
        relation.apply_delta((_POOL_BASE,), 1)  # collides with pool id space
        relation.apply_delta((-small,), 1)
        assert sorted(t[0] for t in relation) == sorted(
            [small, big, _POOL_BASE, -small]
        )
        assert relation._intern(small) == small
        assert relation._intern(big) >= _POOL_BASE
        assert abs(relation._intern(-small)) < _ID_MAX


def test_absent_probes_with_unseen_and_unhashable_friendly_values():
    with storage_backend("columnar"):
        relation = make_relation({(1, 2): 1})
        keys = ("A",)
        assert not relation.contains_key(keys, ("never-seen",))
        assert not relation.contains_key_of(keys, (99, 2))
        assert relation.degree_of(keys, (2.5, 0)) == 0
        assert relation.slice_size(keys, (1 << 60,)) == 0


# ----------------------------------------------------------------------
# free list and compaction
# ----------------------------------------------------------------------

def test_free_list_reuse_preserves_enumeration_order():
    with storage_backend("columnar"):
        relation = make_relation()
        for i in range(6):
            relation.apply_delta((i, i), 1)
        relation.apply_delta((2, 2), -1)
        relation.apply_delta((4, 4), -1)
        relation.apply_delta((10, 10), 1)  # reuses a freed row id
        relation.apply_delta((2, 2), 1)  # re-insert goes to the *end*
        expected = [(0, 0), (1, 1), (3, 3), (5, 5), (10, 10), (2, 2)]
        assert list(relation) == expected
        assert len(relation._free) == 0


def test_explicit_compact_is_observationally_invisible():
    with storage_backend("columnar"):
        relation = make_relation()
        keys = ("B",)
        for i in range(50):
            relation.apply_delta((i, i % 5), 1 + i % 3)
        relation.ensure_index(keys)
        for i in range(0, 50, 2):
            relation.apply_delta((i, i % 5), -relation.multiplicity((i, i % 5)))
        items = list(relation.items())
        groups = {k: list(relation.slice(keys, k)) for k in relation.distinct_keys(keys)}
        key_order = list(relation.distinct_keys(keys))
        relation.compact()
        assert len(relation._free) == 0
        assert len(relation._mults) == len(relation)
        assert list(relation.items()) == items
        assert list(relation.distinct_keys(keys)) == key_order
        for key, members in groups.items():
            assert list(relation.slice(keys, key)) == members
            assert relation.slice_size(keys, key) == len(members)


def test_auto_compaction_triggers_and_keeps_answers():
    with storage_backend("columnar"):
        relation = make_relation()
        relation.apply_delta((-1, -1), 1)  # one survivor
        churn = 2 * _COMPACT_MIN_FREE
        for i in range(churn):
            relation.apply_delta((i, i), 1)
            relation.apply_delta((i, i), -1)
        # The free list can never exceed the auto-compaction bound by more
        # than the ratio allows: churn rows were freed, so a rebuild ran.
        assert len(relation._free) < churn
        assert len(relation._mults) < churn
        assert relation.as_dict() == {(-1, -1): 1}


# ----------------------------------------------------------------------
# indexes
# ----------------------------------------------------------------------

def test_group_view_is_reiterable_and_sized():
    with storage_backend("columnar"):
        relation = make_relation({(1, 0): 1, (2, 0): 1, (3, 1): 1})
        view = relation.slice(("B",), (0,))
        assert list(view) == [(1, 0), (2, 0)]
        assert list(view) == [(1, 0), (2, 0)]  # second pass identical
        assert len(view) == 2
        relation.apply_delta((4, 0), 1)
        assert list(view) == [(1, 0), (2, 0), (4, 0)]  # live view


def test_index_memo_and_invalidate(backend):
    relation = make_relation({(1, 2): 1})
    index = relation.ensure_index(("B",))
    assert relation.ensure_index(("B",)) is index
    assert relation.ensure_index(["B"]) is index  # normalised to one index
    relation.invalidate_indexes()
    rebuilt = relation.ensure_index(("B",))
    assert rebuilt is not index
    assert relation.slice_size(("B",), (2,)) == 1
    if backend == "columnar":
        assert relation._index_list == tuple(relation._indexes.values())


def test_index_key_schema_must_be_subset(backend):
    with pytest.raises(SchemaError):
        make_relation().ensure_index(("A", "Z"))


def test_multi_column_index_groups(backend):
    relation = Relation("T", ("A", "B", "C"))
    for row in [(1, 2, 3), (1, 2, 4), (2, 2, 3), (1, 3, 3)]:
        relation.apply_delta(row, 1)
    keys = ("A", "B")
    assert relation.slice_size(keys, (1, 2)) == 2
    assert list(relation.slice(keys, (1, 2))) == [(1, 2, 3), (1, 2, 4)]
    assert relation.contains_key_of(keys, (1, 2, 999))
    assert not relation.contains_key_of(keys, (9, 2, 3))
    assert relation.degree_of(keys, (2, 2, 0)) == 1
    relation.apply_delta((1, 2, 3), -1)
    relation.apply_delta((1, 2, 4), -1)
    assert not relation.contains_key(keys, (1, 2))
    assert (1, 2) not in list(relation.distinct_keys(keys))


def test_clear_resets_storage(backend):
    relation = make_relation({(1, 2): 2, (3, 4): 1})
    relation.ensure_index(("A",))
    relation.clear()
    assert len(relation) == 0
    assert list(relation.items()) == []
    relation.apply_delta((5, 6), 1)
    assert relation.slice_size(("A",), (5,)) == 1


# ----------------------------------------------------------------------
# contract edges shared by both backends
# ----------------------------------------------------------------------

def test_apply_delta_contract(backend):
    relation = make_relation()
    assert relation.apply_delta((1, 2), 0) == 0
    assert (1, 2) not in relation
    with pytest.raises(RejectedUpdateError):
        relation.apply_delta((1, 2), -1)
    assert relation.apply_delta((1, 2), 2) == 2
    with pytest.raises(RejectedUpdateError):
        relation.apply_delta((1, 2), -3)
    assert relation.multiplicity((1, 2)) == 2
    assert relation.apply_delta((1, 2), -2) == 0
    assert len(relation) == 0


def test_arity_is_checked_on_the_insert_path(backend):
    relation = make_relation()
    with pytest.raises(SchemaError):
        relation.apply_delta((1, 2, 3), 1)
    with pytest.raises(SchemaError):
        relation.apply_delta((1,), 1)


def test_total_multiplicity(backend):
    relation = make_relation({(1, 2): 3, (4, 5): 7})
    assert relation.total_multiplicity() == 10
