"""Unit tests for schema and tuple helpers."""

import pytest

from repro.data.schema import (
    Projector,
    difference_schema,
    dict_to_tuple,
    intersect_schema,
    is_subschema,
    make_schema,
    merge_assignments,
    ordered,
    positions,
    project,
    tuple_to_dict,
    union_schema,
)
from repro.exceptions import SchemaError


class TestMakeSchema:
    def test_preserves_order(self):
        assert make_schema(["B", "A", "C"]) == ("B", "A", "C")

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            make_schema(["A", "B", "A"])

    def test_empty_schema_is_allowed(self):
        assert make_schema([]) == ()


class TestProjection:
    def test_positions(self):
        assert positions(("A", "B", "C"), ("C", "A")) == (2, 0)

    def test_positions_missing_variable(self):
        with pytest.raises(SchemaError):
            positions(("A", "B"), ("C",))

    def test_project_reorders_values(self):
        assert project((1, 2, 3), ("A", "B", "C"), ("C", "A")) == (3, 1)

    def test_project_to_empty(self):
        assert project((1, 2), ("A", "B"), ()) == ()

    def test_projector_is_reusable(self):
        projector = Projector(("A", "B", "C"), ("B",))
        assert projector((1, 2, 3)) == (2,)
        assert projector((4, 5, 6)) == (5,)

    @pytest.mark.parametrize(
        "target",
        [(), ("A",), ("C",), ("B", "C"), ("A", "B", "C"), ("A", "C"), ("C", "A"), ("D", "B")],
    )
    def test_projector_key_of_is_a_tuple_projection(self, target):
        """Slices for consecutive columns, an itemgetter otherwise: always a tuple."""
        source = ("A", "B", "C", "D")
        projector = Projector(source, target)
        for tup in [(1, 2, 3, 4), ("w", "x", "y", "z")]:
            expected = tuple(tup[source.index(v)] for v in target)
            assert projector.key_of(tup) == projector(tup) == expected
            assert type(projector.key_of(tup)) is tuple

    def test_paper_example(self):
        # (a, b, c)[(C, A)] = (c, a) — Section 3 of the paper
        assert project(("a", "b", "c"), ("A", "B", "C"), ("C", "A")) == ("c", "a")


class TestAssignments:
    def test_tuple_to_dict_roundtrip(self):
        schema = ("A", "B")
        assignment = tuple_to_dict((1, 2), schema)
        assert assignment == {"A": 1, "B": 2}
        assert dict_to_tuple(assignment, schema) == (1, 2)

    def test_tuple_to_dict_arity_mismatch(self):
        with pytest.raises(SchemaError):
            tuple_to_dict((1, 2, 3), ("A", "B"))

    def test_dict_to_tuple_missing_variable(self):
        with pytest.raises(SchemaError):
            dict_to_tuple({"A": 1}, ("A", "B"))

    def test_merge_assignments_disjoint(self):
        assert merge_assignments({"A": 1}, {"B": 2}) == {"A": 1, "B": 2}

    def test_merge_assignments_agreeing_overlap(self):
        assert merge_assignments({"A": 1}, {"A": 1, "B": 2}) == {"A": 1, "B": 2}

    def test_merge_assignments_conflict(self):
        with pytest.raises(SchemaError):
            merge_assignments({"A": 1}, {"A": 2})


class TestSetOperations:
    def test_union_keeps_first_order(self):
        assert union_schema(("A", "B"), ("C", "B")) == ("A", "B", "C")

    def test_intersect(self):
        assert intersect_schema(("A", "B", "C"), ("C", "A")) == ("A", "C")

    def test_difference(self):
        assert difference_schema(("A", "B", "C"), ("B",)) == ("A", "C")

    def test_is_subschema(self):
        assert is_subschema(("A",), ("A", "B"))
        assert not is_subschema(("C",), ("A", "B"))
        assert is_subschema((), ("A",))

    def test_ordered_sorts_and_dedupes(self):
        assert ordered(["B", "A", "B"]) == ("A", "B")
