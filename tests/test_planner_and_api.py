"""Tests for query planning/validation and the public engine API surface."""

import pytest

from repro import Database, DynamicEngine, HierarchicalEngine, StaticEngine
from repro.core.planner import (
    coerce_query,
    instantiate_plan,
    plan_query,
    validate_database,
    validate_query,
)
from repro.exceptions import (
    ReproError,
    SchemaError,
    UnknownRelationError,
    UnsupportedQueryError,
)
from repro.query import parse_query
from tests.conftest import random_database, schemas_for

PATH = "Q(A, C) = R(A, B), S(B, C)"


class TestValidation:
    def test_coerce_accepts_string_and_query(self):
        q = parse_query(PATH)
        assert coerce_query(PATH) == q
        assert coerce_query(q) is q

    def test_coerce_rejects_other_types(self):
        with pytest.raises(UnsupportedQueryError):
            coerce_query(42)

    def test_non_hierarchical_query_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            plan_query("Q(A, C) = R(A, B), S(B, C), T(C)")

    def test_repeated_relation_symbols_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            plan_query("Q(A) = R(A, B), R(B, C)")

    def test_empty_schema_atom_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            plan_query("Q(A) = R(A), S()")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            validate_query(parse_query(PATH), mode="streaming")

    def test_validate_database_missing_relation(self):
        database = Database.from_dict({"R": (("A", "B"), [])})
        with pytest.raises(UnknownRelationError):
            validate_database(parse_query(PATH), database)

    def test_validate_database_arity_mismatch(self):
        database = Database.from_dict(
            {"R": (("A", "B", "Z"), []), "S": (("B", "C"), [])}
        )
        with pytest.raises(SchemaError):
            validate_database(parse_query(PATH), database)

    def test_plan_query_reports_widths_and_classes(self):
        plan = plan_query(PATH, mode="dynamic")
        assert plan.static_width == pytest.approx(2.0)
        assert plan.dynamic_width == pytest.approx(1.0)
        assert plan.classification.hierarchical
        assert plan.canonical_order.is_canonical()
        assert "static width" in plan.describe()

    def test_expected_exponents(self):
        plan = plan_query(PATH, mode="dynamic")
        exps = plan.expected_exponents(0.5)
        assert exps == {"preprocessing": 1.5, "delay": 0.5, "update": 0.5}
        static_exps = plan_query(PATH, mode="static").expected_exponents(1.0)
        assert "update" not in static_exps

    def test_instantiate_plan_builds_trees(self):
        database = random_database(schemas_for(PATH), tuples_per_relation=10, seed=1)
        plan = plan_query(PATH, mode="dynamic")
        skew = instantiate_plan(plan, database)
        assert skew.all_trees()


class TestEngineAPI:
    def make_database(self):
        return random_database(schemas_for(PATH), tuples_per_relation=15, seed=2)

    def test_epsilon_bounds_enforced(self):
        with pytest.raises(ValueError):
            HierarchicalEngine(PATH, epsilon=1.5)
        with pytest.raises(ValueError):
            HierarchicalEngine(PATH, epsilon=-0.1)

    def test_properties_before_and_after_load(self):
        engine = HierarchicalEngine(PATH, epsilon=0.5)
        assert engine.static_width == pytest.approx(2.0)
        assert engine.dynamic_width == pytest.approx(1.0)
        with pytest.raises(ReproError):
            engine.view_size()
        with pytest.raises(ReproError):
            _ = engine.threshold
        engine.load(self.make_database())
        assert engine.view_size() > 0
        assert engine.threshold > 0
        assert engine.preprocessing_seconds is not None

    def test_expected_exponents_on_engine(self):
        engine = HierarchicalEngine(PATH, epsilon=0.25)
        assert engine.expected_exponents()["preprocessing"] == pytest.approx(1.25)

    def test_explain_contains_plan_and_trees(self):
        engine = HierarchicalEngine(PATH, epsilon=0.5).load(self.make_database())
        text = engine.explain()
        assert "static width" in text
        assert "strategy tree" in text
        assert "epsilon: 0.5" in text

    def test_static_and_dynamic_subclasses(self):
        static = StaticEngine(PATH)
        dynamic = DynamicEngine(PATH)
        assert static.mode == "static"
        assert dynamic.mode == "dynamic"

    def test_classification_property(self):
        engine = HierarchicalEngine(PATH)
        assert "hierarchical" in engine.classification.classes

    def test_insert_delete_helpers(self):
        database = Database.from_dict(
            {"R": (("A", "B"), []), "S": (("B", "C"), [(0, 1)])}
        )
        engine = DynamicEngine(PATH).load(database)
        engine.insert("R", (1, 0))
        assert engine.result() == {(1, 1): 1}
        engine.delete("R", (1, 0))
        assert engine.result() == {}

    def test_copy_database_false_shares_state(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 0)]), "S": (("B", "C"), [(0, 1)])}
        )
        engine = HierarchicalEngine(PATH, copy_database=False).load(database)
        engine.update("R", (2, 0), 1)
        # the caller's database object was mutated because copy was disabled
        assert database.relation("R").multiplicity((2, 0)) == 1

    def test_rebalance_stats_none_for_static(self):
        engine = StaticEngine(PATH).load(self.make_database())
        assert engine.rebalance_stats is None

    def test_repr_mentions_query(self):
        assert "R(A, B)" in repr(HierarchicalEngine(PATH))
