"""Unit and property tests for relations and secondary indexes."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.relation import COW_REPLAY_RATIO, Index, Relation, storage_backend
from repro.exceptions import RejectedUpdateError, SchemaError
from repro.snapshot.cow import CowTracker


class TestRelationBasics:
    def test_empty_relation(self):
        relation = Relation("R", ("A", "B"))
        assert len(relation) == 0
        assert relation.multiplicity((1, 2)) == 0
        assert (1, 2) not in relation

    def test_insert_and_lookup(self):
        relation = Relation("R", ("A", "B"))
        relation.insert((1, 2))
        relation.insert((1, 2), 2)
        assert relation.multiplicity((1, 2)) == 3
        assert len(relation) == 1
        assert relation.total_multiplicity() == 3

    def test_delete_to_zero_removes_tuple(self):
        relation = Relation("R", ("A",))
        relation.insert((1,), 2)
        relation.delete((1,), 2)
        assert (1,) not in relation
        assert len(relation) == 0

    def test_over_delete_is_rejected(self):
        relation = Relation("R", ("A",))
        relation.insert((1,), 1)
        with pytest.raises(RejectedUpdateError):
            relation.delete((1,), 2)
        # the failed delete must not change the state
        assert relation.multiplicity((1,)) == 1

    def test_delete_absent_tuple_is_rejected(self):
        relation = Relation("R", ("A",))
        with pytest.raises(RejectedUpdateError):
            relation.delete((5,))

    def test_arity_mismatch_raises(self):
        relation = Relation("R", ("A", "B"))
        with pytest.raises(SchemaError):
            relation.insert((1,))

    def test_constructor_with_tuples(self):
        relation = Relation("R", ("A",), {(1,): 2, (2,): 1})
        assert relation.multiplicity((1,)) == 2
        assert len(relation) == 2

    def test_set_multiplicity(self):
        relation = Relation("R", ("A",))
        relation.set_multiplicity((1,), 5)
        assert relation.multiplicity((1,)) == 5
        relation.set_multiplicity((1,), 0)
        assert (1,) not in relation

    def test_copy_is_independent(self):
        relation = Relation("R", ("A",), {(1,): 1})
        clone = relation.copy()
        clone.insert((2,))
        assert (2,) not in relation
        assert clone.multiplicity((1,)) == 1

    def test_merge(self):
        left = Relation("R", ("A",), {(1,): 1, (2,): 2})
        right = Relation("R", ("A",), {(2,): 1, (3,): 4})
        left.merge(right)
        assert left.as_dict() == {(1,): 1, (2,): 3, (3,): 4}

    def test_merge_schema_mismatch(self):
        left = Relation("R", ("A",))
        right = Relation("S", ("A", "B"))
        with pytest.raises(SchemaError):
            left.merge(right)

    def test_project_sums_multiplicities(self):
        relation = Relation("R", ("A", "B"), {(1, 2): 1, (1, 3): 2})
        projected = relation.project(("A",))
        assert projected.as_dict() == {(1,): 3}

    def test_clear(self):
        relation = Relation("R", ("A",), {(1,): 1})
        relation.ensure_index(("A",))
        relation.clear()
        assert len(relation) == 0
        assert relation.slice_size(("A",), (1,)) == 0


class TestIndexes:
    def make_relation(self):
        relation = Relation("R", ("A", "B", "C"))
        for a in range(3):
            for b in range(2):
                relation.insert((a, b, a + b))
        return relation

    def test_slice_returns_matching_tuples(self):
        relation = self.make_relation()
        rows = set(relation.slice(("A",), (1,)))
        assert rows == {(1, 0, 1), (1, 1, 2)}

    def test_slice_size_constant_time_semantics(self):
        relation = self.make_relation()
        assert relation.slice_size(("A",), (0,)) == 2
        assert relation.slice_size(("A",), (9,)) == 0

    def test_distinct_keys(self):
        relation = self.make_relation()
        assert set(relation.distinct_keys(("B",))) == {(0,), (1,)}

    def test_contains_key(self):
        relation = self.make_relation()
        assert relation.contains_key(("A", "B"), (2, 1))
        assert not relation.contains_key(("A", "B"), (2, 5))

    def test_index_maintained_under_updates(self):
        relation = self.make_relation()
        relation.ensure_index(("A",))
        relation.insert((7, 7, 7))
        assert relation.slice_size(("A",), (7,)) == 1
        relation.delete((7, 7, 7))
        assert relation.slice_size(("A",), (7,)) == 0

    def test_index_created_after_data_is_consistent(self):
        relation = self.make_relation()
        assert relation.slice_size(("C",), (1,)) == 2

    def test_index_key_normalisation(self):
        relation = self.make_relation()
        # requesting (B, A) or (A, B) must address the same index
        relation.ensure_index(("B", "A"))
        assert relation.has_index(("A", "B"))

    def test_index_on_non_subset_raises(self):
        relation = self.make_relation()
        with pytest.raises(SchemaError):
            relation.ensure_index(("Z",))

    def test_index_class_directly(self):
        index = Index(("A", "B"), ("B",))
        index.add((1, 2))
        index.add((3, 2))
        assert set(index.group((2,))) == {(1, 2), (3, 2)}
        assert index.group_size((2,)) == 2
        index.remove((1, 2))
        assert index.group_size((2,)) == 1
        index.remove((3, 2))
        assert not index.contains_key((2,))
        assert index.num_keys() == 0


class TestContractEdges:
    def test_equal_values_are_one_key_in_relation_and_index_probes(self):
        """1, 1.0, True and Decimal('1') are one dict key — in the relation
        and in every index probe."""
        relation = Relation("R", ("A", "B"))
        for value in (1, 1.0, True, Decimal("1")):
            relation.apply_delta((value, "x"), 1)
        assert relation.as_dict() == {(1, "x"): 4}
        assert relation.contains_key(("A",), (1.0,))
        assert relation.slice_size(("A",), (True,)) == 1
        assert relation.slice_size(("A", "B"), (Decimal("1"), "x")) == 1
        assert not relation.contains_key(("A",), (1.5,))

    def test_delete_and_reinsert_moves_a_tuple_to_the_end(self):
        relation = Relation("R", ("A", "B"))
        for i in range(6):
            relation.apply_delta((i, i % 2), 1)
        relation.ensure_index(("B",))
        relation.apply_delta((2, 0), -1)
        relation.apply_delta((4, 0), -1)
        relation.apply_delta((10, 0), 1)
        relation.apply_delta((2, 0), 1)  # re-insert goes to the *end*
        assert list(relation) == [(0, 0), (1, 1), (3, 1), (5, 1), (10, 0), (2, 0)]
        assert list(relation.slice(("B",), (0,))) == [(0, 0), (10, 0), (2, 0)]

    def test_merge_rejection_leaves_target_untouched(self):
        """Regression: a rejected negative merge must not half-apply, even
        with the over-deleting entry *last* in ``other``'s order."""
        target = Relation("R", ("A", "B"), {(1, 1): 5, (2, 2): 5, (3, 3): 1})
        other = Relation("R", ("A", "B"), {(1, 1): 2, (2, 2): 2, (3, 3): 4})
        before = list(target.items())
        with pytest.raises(RejectedUpdateError):
            target.merge(other, sign=-1)
        assert list(target.items()) == before
        other.apply_delta((3, 3), -3)
        target.merge(other, sign=-1)
        assert target.as_dict() == {(1, 1): 3, (2, 2): 3}

    def test_set_multiplicity_negative_is_value_error(self):
        """A negative target is a caller error, not an over-delete."""
        relation = Relation("R", ("A", "B"), {(1, 2): 4})
        with pytest.raises(ValueError) as excinfo:
            relation.set_multiplicity((1, 2), -1)
        assert not isinstance(excinfo.value, RejectedUpdateError)
        assert relation.as_dict() == {(1, 2): 4}

    def test_apply_delta_contract(self):
        relation = Relation("R", ("A", "B"))
        assert relation.apply_delta((1, 2), 0) == 0
        assert (1, 2) not in relation
        with pytest.raises(RejectedUpdateError):
            relation.apply_delta((1, 2), -1)
        assert relation.apply_delta((1, 2), 2) == 2
        with pytest.raises(RejectedUpdateError):
            relation.apply_delta((1, 2), -3)
        assert relation.apply_delta((1, 2), -2) == 0
        assert len(relation) == 0
        with pytest.raises(SchemaError):
            relation.apply_delta((1, 2, 3), 1)

    def test_index_memo_invalidate_and_live_slices(self):
        relation = Relation("R", ("A", "B"), {(1, 0): 1, (2, 0): 1, (3, 1): 1})
        index = relation.ensure_index(("B",))
        assert relation.ensure_index(["B"]) is index
        view = relation.slice(("B",), (0,))
        assert list(view) == list(view) == [(1, 0), (2, 0)]
        relation.apply_delta((4, 0), 1)
        assert list(view) == [(1, 0), (2, 0), (4, 0)]  # a live view
        relation.invalidate_indexes()
        assert relation.ensure_index(("B",)) is not index
        assert relation.slice_size(("B",), (0,)) == 3

    def test_multi_column_index_groups(self):
        relation = Relation("T", ("A", "B", "C"))
        for row in [(1, 2, 3), (1, 2, 4), (2, 2, 3), (1, 3, 3)]:
            relation.apply_delta(row, 1)
        keys = ("A", "B")
        assert list(relation.slice(keys, (1, 2))) == [(1, 2, 3), (1, 2, 4)]
        assert relation.slice_size(keys, (2, 2)) == 1
        relation.apply_delta((1, 2, 3), -1)
        relation.apply_delta((1, 2, 4), -1)
        assert not relation.contains_key(keys, (1, 2))
        assert list(relation.distinct_keys(keys)) == [(2, 2), (1, 3)]

    def test_copy_with_indexes_carries_only_held_indexes(self):
        relation = Relation("R", ("A", "B"), {(1, 0): 1, (2, 0): 1, (3, 1): 1})
        relation.ensure_index(("B",))
        clone = relation.copy_with_indexes([("B",), ("A",)])
        assert list(clone._indexes) == [("B",)]
        assert clone._indexes[("B",)] is not relation._indexes[("B",)]
        clone.apply_delta((1, 0), -1)
        clone.apply_delta((2, 0), 4)
        assert list(clone.slice(("B",), (0,))) == [(2, 0)]
        assert list(relation.slice(("B",), (0,))) == [(1, 0), (2, 0)]
        assert list(clone._indexes[("B",)].group_items((0,))) == [((2, 0), 5)]

    def test_merge_positive_and_valid_negative(self):
        target = Relation("R", ("A", "B"), {(1, 1): 2})
        other = Relation("S", ("A", "B"), {(1, 1): 1, (2, 2): 3})
        target.merge(other)
        assert target.as_dict() == {(1, 1): 3, (2, 2): 3}
        target.merge(other, sign=-1)
        assert target.as_dict() == {(1, 1): 2}

    def test_set_multiplicity_zero_removes_and_set_updates(self):
        relation = Relation("R", ("A", "B"), {(1, 2): 4})
        relation.set_multiplicity((1, 2), 9)
        assert relation.multiplicity((1, 2)) == 9
        relation.set_multiplicity((3, 4), 2)
        relation.set_multiplicity((1, 2), 0)
        assert relation.as_dict() == {(3, 4): 2}

    def test_clear_resets_storage(self):
        relation = Relation("R", ("A", "B"), {(1, 2): 2, (3, 4): 1})
        index = relation.ensure_index(("A",))
        relation.clear()
        assert len(relation) == 0
        assert list(relation.items()) == []
        assert index.num_keys() == 0
        relation.apply_delta((5, 6), 1)
        assert relation.slice_size(("A",), (5,)) == 1
        assert relation.ensure_index(("A",)) is index

    def test_arity_is_checked_on_the_insert_path(self):
        relation = Relation("R", ("A", "B"))
        with pytest.raises(SchemaError):
            relation.apply_delta((1, 2, 3), 1)
        with pytest.raises(SchemaError):
            relation.apply_delta((1,), 1)
        assert len(relation) == 0

    def test_total_multiplicity(self):
        relation = Relation("R", ("A", "B"), {(1, 2): 3, (4, 5): 7})
        assert relation.total_multiplicity() == 10

    def test_index_key_schema_must_be_subset(self):
        relation = Relation("R", ("A", "B"))
        with pytest.raises(SchemaError):
            relation.ensure_index(("A", "Z"))
        assert relation._indexes == {}

    def test_group_view_is_reiterable_and_sized(self):
        relation = Relation("R", ("A", "B"), {(1, 0): 1, (2, 0): 1, (3, 1): 1})
        view = relation.slice(("B",), (0,))
        assert list(view) == [(1, 0), (2, 0)]
        assert list(view) == [(1, 0), (2, 0)]  # second pass identical
        assert len(view) == 2

    def test_absent_probes_with_unseen_and_unhashable_friendly_values(self):
        relation = Relation("R", ("A", "B"), {(1, 2): 1})
        keys = ("A",)
        assert not relation.contains_key(keys, ("never-seen",))
        assert relation.slice_size(keys, (2.5,)) == 0
        assert relation.slice_size(keys, (1 << 60,)) == 0
        assert list(relation.slice(keys, (None,))) == []
        assert relation.multiplicity((99, 2)) == 0

    @pytest.mark.parametrize(
        "stored, probe",
        [
            (2, 2.0),
            (1, True),
            (True, 1),
            (0, False),
            (1.0, Decimal("1")),
            (1 << 50, float(1 << 50)),
        ],
    )
    def test_equal_value_probes_find_the_stored_key(self, stored, probe):
        """A probe spelled with an equal value of another type finds the key,
        in the relation and through every index on it."""
        relation = Relation("R", ("A", "B"), {(stored, 7): 2, (5, 1): 1})
        assert relation.multiplicity((probe, 7)) == 2
        assert (probe, 7) in relation
        assert relation.contains_key(("A",), (probe,))
        assert relation.slice_size(("A", "B"), (probe, 7)) == 1
        assert list(relation.slice(("A",), (probe,))) == [(stored, 7)]
        relation.apply_delta((probe, 7), -2)
        assert len(relation) == 1
        assert not relation.contains_key(("A",), (stored,))

    def test_storage_backend_names_the_one_layout(self):
        with storage_backend("dict"):
            relation = Relation("R", ("A",), {(1,): 1})
        assert type(relation) is Relation

    @pytest.mark.parametrize("name", ["columnar", "sqlite", "Dict"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError):
            with storage_backend(name):
                pass  # pragma: no cover - never entered


class TestSnapshotRedoLog:
    """``apply_delta``'s redo log, as :mod:`repro.snapshot.cow` reads it: one
    ``(tuple, delta)`` entry per change tick while the tracker keeps a log,
    dropped once replaying it would cost more than a copy."""

    @staticmethod
    def logged(rows):
        relation = Relation("R", ("A", "B"), rows)
        relation._cow_log = []  # what the tracker sets after a frozen copy
        return relation, relation._change_ticks

    def test_no_log_is_kept_until_a_frozen_copy_asks_for_one(self):
        relation = Relation("R", ("A", "B"), {(i, 0): 1 for i in range(100)})
        ticks = relation._change_ticks
        relation.apply_delta((1, 0), 1)
        relation.apply_delta((200, 0), 1)
        assert relation._cow_log is None
        assert relation._change_ticks == ticks + 2

    def test_each_effective_mutation_appends_one_entry_per_tick(self):
        relation, ticks = self.logged({(i, i % 3): 1 for i in range(1000)})
        relation.apply_delta((1, 1), 2)
        relation.delete((1, 1), 3)  # to zero: the tuple leaves
        relation.insert((500, 2))
        relation.set_multiplicity((2, 2), 4)
        relation.merge(Relation("S", ("A", "B"), {(3, 0): 1}), sign=-1)
        assert relation._cow_log == [
            ((1, 1), 2),
            ((1, 1), -3),
            ((500, 2), 1),
            ((2, 2), 3),
            ((3, 0), -1),
        ]
        assert relation._change_ticks - ticks == len(relation._cow_log)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda relation: relation.apply_delta((1, 0), 0), None),
            (lambda relation: relation.apply_delta((1, 0), -2), RejectedUpdateError),
            (lambda relation: relation.apply_delta((1, 0, 0), 1), SchemaError),
        ],
        ids=["zero-delta", "over-delete", "wrong-arity"],
    )
    def test_no_op_and_rejected_deltas_neither_tick_nor_log(self, call, error):
        relation, ticks = self.logged({(i, 0): 1 for i in range(100)})
        if error is None:
            call(relation)
        else:
            with pytest.raises(error):
                call(relation)
        assert relation._cow_log == []
        assert relation._change_ticks == ticks
        assert relation.multiplicity((1, 0)) == 1

    @pytest.mark.parametrize("size, kept", [(1, 1), (32, 1), (33, 2), (320, 10)])
    def test_log_is_dropped_once_replaying_it_would_cost_more_than_a_copy(self, size, kept):
        assert COW_REPLAY_RATIO == 32
        relation, ticks = self.logged({(i, 0): 1 for i in range(size)})
        for _ in range(kept):
            relation.apply_delta((0, 0), 1)  # the size stays put
        assert len(relation._cow_log) == kept
        relation.apply_delta((0, 0), 1)
        assert relation._cow_log is None
        relation.apply_delta((0, 0), 1)
        assert relation._cow_log is None  # only the tracker starts a new one
        assert relation._change_ticks == ticks + kept + 2

    def test_clear_ticks_without_an_entry(self):
        relation, ticks = self.logged({(1, 2): 1, (3, 4): 1})
        relation.clear()
        assert relation._change_ticks == ticks + 1
        assert relation._cow_log == []  # shorter than the tick distance: copy
        relation.clear()  # already empty: no tick
        assert relation._change_ticks == ticks + 1

    def test_replaying_the_log_onto_a_copy_reproduces_the_relation(self):
        relation = Relation("R", ("A", "B"), {(i, i % 4): 1 + i % 2 for i in range(1000)})
        relation.ensure_index(("B",))
        replica = relation.copy_with_indexes([("B",)])
        relation._cow_log = []
        for i in range(0, 6):
            relation.apply_delta((i, i % 4), -relation.multiplicity((i, i % 4)))
        relation.apply_delta((3, 3), 5)  # deleted above, re-inserted at the end
        relation.apply_delta((300, 1), 1)
        relation.apply_delta((10, 2), 2)
        for tup, delta in relation._cow_log:
            replica.apply_delta(tup, delta)
        assert list(replica.items()) == list(relation.items())
        for key in relation.distinct_keys(("B",)):
            assert list(replica.slice(("B",), key)) == list(relation.slice(("B",), key))
        assert set(replica.distinct_keys(("B",))) == set(relation.distinct_keys(("B",)))


class TestCopyWithIndexes:
    @staticmethod
    def churned():
        """A ternary relation whose indexes saw deletes and re-inserts."""
        relation = Relation("T", ("A", "B", "C"))
        for i in range(60):
            relation.apply_delta((i % 5, i % 3, i), 1)
        for schema in [(), ("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")]:
            relation.ensure_index(schema)
        relation.ensure_index(("A", "B", "C"))
        for i in range(0, 60, 4):
            relation.apply_delta((i % 5, i % 3, i), -1)
        for i in range(0, 60, 8):
            relation.apply_delta((i % 5, i % 3, i), 2)  # back, at the end
        relation.apply_delta((9, 9, 9), 1)
        return relation

    @pytest.mark.parametrize(
        "key_schema",
        [(), ("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")],
    )
    def test_carried_groups_list_members_as_a_fresh_build_would(self, key_schema):
        relation = self.churned()
        clone = relation.copy_with_indexes([key_schema])
        assert list(clone._indexes) == [key_schema]
        fresh = relation.copy()  # no index: the probes below build one
        assert set(clone.distinct_keys(key_schema)) == set(fresh.distinct_keys(key_schema))
        for key in fresh.distinct_keys(key_schema):
            assert list(clone.slice(key_schema, key)) == list(fresh.slice(key_schema, key))
            assert dict(clone._indexes[key_schema].group_items(key)) == {
                tup: relation.multiplicity(tup) for tup in fresh.slice(key_schema, key)
            }

    def test_carried_index_is_independent_of_the_source(self):
        relation = self.churned()
        before = {
            key: list(relation.slice(("A",), key)) for key in relation.distinct_keys(("A",))
        }
        clone = relation.copy_with_indexes([("A",)])
        relation.apply_delta((9, 9, 9), -1)
        relation.apply_delta((0, 7, 7), 1)
        clone.apply_delta((1, 1, 1), 3)
        assert {
            key: list(clone.slice(("A",), key)) for key in clone.distinct_keys(("A",))
        } == before
        assert clone.multiplicity((1, 1, 1)) == 4
        assert relation.multiplicity((1, 1, 1)) == 1
        assert list(relation.slice(("A",), (9,))) == []
        assert list(relation.slice(("A",), (0,)))[-1] == (0, 7, 7)

    def test_plain_copy_carries_no_index(self):
        relation = self.churned()
        clone = relation.copy("U")
        assert clone.name == "U" and clone._indexes == {}
        assert list(clone.items()) == list(relation.items())
        assert list(clone.slice(("C",), (9,))) == [(4, 0, 9), (9, 9, 9)]
        assert clone._cow_log is None and clone._cow_cache is None

    def test_plain_copy_of_a_churned_relation_owns_its_map(self):
        """The copy clones the hash table, deleted slots and all: its own
        writes and its own indexes touch nothing of the source's."""
        relation = self.churned()
        before = list(relation.items())
        clone = relation.copy()
        assert clone._data is not relation._data
        index = clone.ensure_index(("A",))
        clone.apply_delta((5, 5, 5), 3)
        clone.apply_delta((4, 0, 9), -1)
        assert list(relation.items()) == before
        assert clone.multiplicity((5, 5, 5)) == 3 and (4, 0, 9) not in clone
        assert dict(index.group_items((5,))) == {(5, 5, 5): 3}
        assert (4, 0, 9) not in dict(index.group_items((4,)))
        assert (5, 5, 5) not in relation and relation.multiplicity((4, 0, 9)) == 1
        assert list(clone.items()) == [p for p in before if p[0] != (4, 0, 9)] + [((5, 5, 5), 3)]


@st.composite
def _update_sequences(draw):
    """Sequences of (tuple, delta) pairs with bounded domains."""
    operations = draw(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(-2, 3).filter(lambda d: d != 0),
            ),
            max_size=40,
        )
    )
    return operations


class TestRelationProperties:
    @given(_update_sequences())
    @settings(max_examples=60, deadline=None)
    def test_relation_agrees_with_reference_counter(self, operations):
        """The relation behaves like a plain dict counter with rejection."""
        relation = Relation("R", ("A", "B"))
        relation.ensure_index(("A",))
        reference = {}
        for tup, delta in operations:
            expected = reference.get(tup, 0) + delta
            if expected < 0:
                with pytest.raises(RejectedUpdateError):
                    relation.apply_delta(tup, delta)
                continue
            relation.apply_delta(tup, delta)
            if expected == 0:
                reference.pop(tup, None)
            else:
                reference[tup] = expected
        assert relation.as_dict() == reference
        # the index must agree with a recomputed grouping
        for key in {t[:1] for t in reference}:
            expected_group = {t for t in reference if t[:1] == key}
            assert set(relation.slice(("A",), key)) == expected_group

    @given(_update_sequences())
    @settings(max_examples=30, deadline=None)
    def test_total_multiplicity_matches_reference(self, operations):
        relation = Relation("R", ("A", "B"))
        reference = {}
        for tup, delta in operations:
            if reference.get(tup, 0) + delta < 0:
                continue
            relation.apply_delta(tup, delta)
            reference[tup] = reference.get(tup, 0) + delta
        assert relation.total_multiplicity() == sum(v for v in reference.values())


_TERNARY_KEYS = [(), ("A",), ("B",), ("C",), ("A", "C"), ("B", "C"), ("A", "B", "C")]
_ternary = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 3))


def _bulk_write_state(relation, state, error):
    """Everything a write leaves behind that the bulk and the one-by-one
    paths must agree on."""
    frozen = state.frozen.get(relation) if state is not None else None
    return (
        list(relation._data.items()),
        {
            key: [(value, list(group)) for value, group in index._groups.items()]
            for key, index in relation._indexes.items()
        },
        relation._change_ticks,
        relation._cow_log,
        None if frozen is None else list(frozen.items()),
        error,
    )


class TestApplyDeltas:
    @given(
        rows=st.dictionaries(_ternary, st.integers(1, 3), max_size=25),
        churn=st.lists(_ternary, max_size=6),
        keys=st.lists(st.sampled_from(_TERNARY_KEYS), max_size=4),
        pairs=st.lists(
            st.tuples(
                st.one_of(_ternary, _ternary, _ternary, st.just((1, 2))),
                st.integers(-3, 3),
            ),
            max_size=30,
        ),
        capture=st.booleans(),
        logged=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bulk_write_matches_the_same_pairs_one_by_one(
        self, rows, churn, keys, pairs, capture, logged
    ):
        """Content order, index key and group order, ticks, the redo log, the
        frozen copy a snapshot capture gets, and — on an over-delete or a
        malformed tuple mid-sequence — the applied prefix and the error."""

        def build():
            relation = Relation("R", ("A", "B", "C"), rows)
            for key in keys:
                relation.ensure_index(key)
            for tup in churn:  # indexes whose key order remembers history
                if relation.multiplicity(tup):
                    relation.apply_delta(tup, -relation.multiplicity(tup))
                relation.apply_delta(tup, 1)
            if logged:
                relation._cow_log = []
            state = CowTracker().capture([relation]) if capture else None
            return relation, state

        def outcome(write):
            relation, state = build()
            try:
                write(relation)
            except (RejectedUpdateError, SchemaError) as exc:
                return _bulk_write_state(relation, state, (type(exc), str(exc)))
            return _bulk_write_state(relation, state, None)

        def one_by_one(relation):
            for tup, delta in pairs:
                relation.apply_delta(tup, delta)

        assert outcome(lambda relation: relation.apply_deltas(pairs)) == outcome(
            one_by_one
        )

    def test_the_guard_runs_once_and_the_log_is_read_after_it(self):
        relation = Relation("R", ("A", "B"), {(i, 0): 1 for i in range(100)})
        tracker = CowTracker()
        state = tracker.capture([relation])
        calls = []
        preserve = tracker.preserve
        tracker.preserve = lambda rel: (calls.append(rel), preserve(rel))
        relation.apply_deltas([((1, 0), 0), ((1, 0), 1), ((200, 0), 1), ((2, 0), -1)])
        assert calls == [relation]
        assert list(state.frozen[relation].items()) == [((i, 0), 1) for i in range(100)]
        # the tracker started the log in the guard; every change after it is logged
        assert relation._cow_log == [((1, 0), 1), ((200, 0), 1), ((2, 0), -1)]
        assert tracker.replayed_entries == 0
