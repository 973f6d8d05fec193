"""Tests for databases, update objects, and update streams."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.update import Update, UpdateStream, deletes_for, inserts_for
from repro.exceptions import UnknownRelationError


class TestDatabase:
    def test_from_dict_accumulates_duplicates(self):
        db = Database.from_dict({"R": (("A",), [(1,), (1,), (2,)])})
        assert db.relation("R").multiplicity((1,)) == 2
        assert db.size == 2

    def test_size_is_distinct_tuple_count(self):
        db = Database.from_dict(
            {"R": (("A",), [(1,), (2,)]), "S": (("B", "C"), [(1, 2)])}
        )
        assert db.size == 3

    def test_unknown_relation_raises(self):
        db = Database()
        with pytest.raises(UnknownRelationError):
            db.relation("missing")

    def test_contains_and_names(self):
        db = Database([Relation("R", ("A",))])
        assert "R" in db
        assert "S" not in db
        assert db.names() == ("R",)

    def test_create_relation(self):
        db = Database()
        relation = db.create_relation("R", ("A", "B"))
        relation.insert((1, 2))
        assert db.relation("R").multiplicity((1, 2)) == 1

    def test_copy_is_deep(self):
        db = Database.from_dict({"R": (("A",), [(1,)])})
        clone = db.copy()
        clone.relation("R").insert((2,))
        assert (2,) not in db.relation("R")

    def test_rows_roundtrip_keeps_order_and_merges_into_existing_relations(self):
        rows = {
            "S": (("B", "C"), [((3, 1), 2), ((1, 9), 1), ((2, 2), 5)]),
            "R": (("A",), [([7], 1), ([4], 3)]),  # JSON hands tuples back as lists
        }
        db = Database.from_rows(rows)
        assert db.names() == ("S", "R")
        assert list(db.relation("S").items()) == rows["S"][1]
        assert list(db.relation("R").items()) == [((7,), 1), ((4,), 3)]
        assert Database.from_rows(db.to_rows()).to_rows() == db.to_rows()
        # add_rows merges: an existing relation takes the rows, a new one is created
        assert db.add_rows({"R": (("A",), [((7,), -1), ((5,), 1)]), "T": (("X",), [])}) is db
        assert list(db.relation("R").items()) == [((4,), 3), ((5,), 1)]
        assert db.names() == ("S", "R", "T") and len(db.relation("T")) == 0

    def test_getitem_and_iter(self):
        db = Database.from_dict({"R": (("A",), [(1,)]), "S": (("B",), [(2,)])})
        assert db["R"].name == "R"
        assert [r.name for r in db] == ["R", "S"]


class TestUpdate:
    def test_insert_and_delete_flags(self):
        insert = Update("R", (1, 2), 3)
        delete = Update("R", (1, 2), -1)
        assert insert.is_insert and not insert.is_delete
        assert delete.is_delete and not delete.is_insert

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Update("R", (1,), 0)

    def test_inverted(self):
        update = Update("R", (1,), 2)
        assert update.inverted() == Update("R", (1,), -2)

    def test_tuple_coercion(self):
        update = Update("R", [1, 2], 1)
        assert update.tuple == (1, 2)


class TestUpdateStream:
    def test_apply_to_database(self):
        db = Database.from_dict({"R": (("A",), [(1,)])})
        stream = UpdateStream([Update("R", (2,), 1), Update("R", (1,), -1)])
        stream.apply_to(db)
        assert db.relation("R").as_dict() == {(2,): 1}

    def test_from_database_roundtrip(self):
        db = Database.from_dict({"R": (("A",), [(1,), (2,)]), "S": (("B",), [(3,)])})
        empty = Database.from_dict({"R": (("A",), []), "S": (("B",), [])})
        UpdateStream.from_database(db).apply_to(empty)
        assert empty.relation("R").as_dict() == db.relation("R").as_dict()
        assert empty.relation("S").as_dict() == db.relation("S").as_dict()

    def test_inserts_and_deletes_split(self):
        stream = UpdateStream(
            [Update("R", (1,), 1), Update("R", (2,), -1), Update("R", (3,), 2)]
        )
        assert len(stream.inserts()) == 2
        assert len(stream.deletes()) == 1

    def test_interleave_round_robin(self):
        first = UpdateStream([Update("R", (1,), 1), Update("R", (2,), 1)])
        second = UpdateStream([Update("S", (9,), 1)])
        merged = UpdateStream.interleave([first, second])
        assert [u.relation for u in merged] == ["R", "S", "R"]

    def test_helpers(self):
        assert len(inserts_for("R", [(1,), (2,)])) == 2
        assert all(u.is_delete for u in deletes_for("R", [(1,)]))

    def test_indexing_and_len(self):
        stream = UpdateStream([Update("R", (1,), 1)])
        assert len(stream) == 1
        assert stream[0].tuple == (1,)
