"""Tests for BoundRelation, the fold join, delta joins, and materialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine.evaluator import evaluate_query_naive, evaluate_to_dict
from repro.data.relation import DictRelation
from repro.data.storage import ColumnarRelation
from repro.engine.join import (
    BoundRelation,
    compile_join,
    delta_join,
    fold_join,
    join_children,
    join_to_relation,
)
from repro.engine.materialize import materialize_plan, total_view_size
from repro.exceptions import SchemaError
from repro.query.parser import parse_query
from repro.views.skew import build_skew_aware_plan
from repro.vo.variable_order import build_canonical_variable_order
from tests.conftest import random_database, schemas_for


class TestBoundRelation:
    def make_bound(self):
        relation = Relation("R", ("x", "y"), {(1, 2): 1, (1, 3): 2, (4, 2): 1})
        return BoundRelation(("A", "B"), relation)

    def test_arity_mismatch_raises(self):
        with pytest.raises(SchemaError):
            BoundRelation(("A",), Relation("R", ("x", "y")))

    def test_multiplicity_lookup(self):
        bound = self.make_bound()
        assert bound.multiplicity((1, 3)) == 2

    def test_matching_with_partial_assignment(self):
        bound = self.make_bound()
        assert dict(bound.matching({"A": 1})) == {(1, 2): 1, (1, 3): 2}
        assert dict(bound.matching({"B": 2})) == {(1, 2): 1, (4, 2): 1}

    def test_matching_with_full_assignment(self):
        bound = self.make_bound()
        assert dict(bound.matching({"A": 1, "B": 3})) == {(1, 3): 2}
        assert dict(bound.matching({"A": 9, "B": 9})) == {}

    def test_matching_with_empty_assignment_enumerates_all(self):
        bound = self.make_bound()
        assert len(dict(bound.matching({}))) == 3

    def test_matching_ignores_unrelated_context_variables(self):
        bound = self.make_bound()
        assert dict(bound.matching({"Z": 5, "A": 4})) == {(4, 2): 1}


class TestJoinChildren:
    def test_two_way_join_with_projection(self):
        r = BoundRelation(("A", "B"), Relation("R", ("A", "B"), {(1, 10): 1, (2, 10): 2}))
        s = BoundRelation(("B", "C"), Relation("S", ("B", "C"), {(10, 5): 3, (11, 6): 1}))
        result = join_children([r, s], ("A", "C"))
        assert result == {(1, 5): 3, (2, 5): 6}

    def test_projection_aggregates_multiplicities(self):
        r = BoundRelation(("A", "B"), Relation("R", ("A", "B"), {(1, 10): 1, (1, 11): 1}))
        s = BoundRelation(("B",), Relation("S", ("B",), {(10,): 1, (11,): 1}))
        result = join_children([r, s], ("A",))
        assert result == {(1,): 2}

    def test_empty_child_gives_empty_result(self):
        r = BoundRelation(("A", "B"), Relation("R", ("A", "B"), {(1, 10): 1}))
        s = BoundRelation(("B", "C"), Relation("S", ("B", "C")))
        assert join_children([r, s], ("A", "C")) == {}

    def test_no_children_gives_unit(self):
        assert join_children([], ()) == {(): 1}

    def test_cartesian_product_when_no_shared_variables(self):
        r = BoundRelation(("A",), Relation("R", ("A",), {(1,): 2}))
        s = BoundRelation(("B",), Relation("S", ("B",), {(7,): 3}))
        assert join_children([r, s], ("A", "B")) == {(1, 7): 6}

    def test_output_variable_not_in_any_child_raises(self):
        r = BoundRelation(("A",), Relation("R", ("A",), {(1,): 1}))
        with pytest.raises(SchemaError):
            join_children([r], ("A", "Z"))

    def test_join_to_relation(self):
        r = BoundRelation(("A", "B"), Relation("R", ("A", "B"), {(1, 10): 1}))
        s = BoundRelation(("B", "C"), Relation("S", ("B", "C"), {(10, 5): 1}))
        relation = join_to_relation([r, s], ("A", "B", "C"), "V")
        assert relation.as_dict() == {(1, 10, 5): 1}
        assert relation.schema == ("A", "B", "C")

    def test_three_way_join_matches_naive_evaluator(self):
        text = "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)"
        database = random_database(schemas_for(text), tuples_per_relation=30, seed=5)
        query = parse_query(text)
        children = [
            BoundRelation(atom.variables, database.relation(atom.relation))
            for atom in query.atoms
        ]
        assert join_children(children, tuple(query.head)) == evaluate_to_dict(
            query, database
        )


class TestDeltaJoin:
    def test_single_tuple_delta(self):
        s = BoundRelation(("B", "C"), Relation("S", ("B", "C"), {(10, 5): 2, (11, 6): 1}))
        delta = delta_join(("A", "B"), {(1, 10): 3}, [s], ("A", "C"))
        assert delta == {(1, 5): 6}

    def test_delta_with_negative_multiplicity(self):
        s = BoundRelation(("B",), Relation("S", ("B",), {(10,): 2}))
        delta = delta_join(("A", "B"), {(1, 10): -1}, [s], ("A",))
        assert delta == {(1,): -2}

    def test_empty_delta_short_circuits(self):
        s = BoundRelation(("B",), Relation("S", ("B",)))
        assert delta_join(("A", "B"), {}, [s], ("A",)) == {}
        assert delta_join(("A", "B"), {(1, 10): 0}, [s], ("A",)) == {}

    def test_delta_equals_result_difference(self):
        """δ(Q) after inserting x equals Q(D + x) − Q(D) (the delta rule)."""
        text = "Q(A, C) = R(A, B), S(B, C)"
        query = parse_query(text)
        database = random_database(schemas_for(text), tuples_per_relation=25, seed=9)
        before = evaluate_to_dict(query, database)
        new_tuple = (99, 3)
        siblings = [
            BoundRelation(("B", "C"), database.relation("S")),
        ]
        delta = delta_join(("A", "B"), {new_tuple: 1}, siblings, ("A", "C"))
        database.relation("R").insert(new_tuple)
        after = evaluate_to_dict(query, database)
        expected_delta = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in set(after) | set(before)
            if after.get(key, 0) - before.get(key, 0) != 0
        }
        assert delta == expected_delta


class TestMaterializePlan:
    @pytest.mark.parametrize(
        "text",
        [
            "Q(A, C) = R(A, B), S(B, C)",
            "Q(A) = R(A, B), S(B)",
            "Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
        ],
    )
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_root_views_or_union_encode_result(self, text, mode):
        query = parse_query(text)
        database = random_database(schemas_for(text), tuples_per_relation=25, seed=3)
        order = build_canonical_variable_order(query)
        plan = build_skew_aware_plan(query, order, database, mode)
        materialize_plan(plan, threshold=3.0)
        for triple in plan.indicator_triples:
            assert triple.check_support()
        assert total_view_size(plan) > 0

    def test_view_size_counts_light_parts_and_views(self):
        text = "Q(A, C) = R(A, B), S(B, C)"
        query = parse_query(text)
        database = random_database(schemas_for(text), tuples_per_relation=25, seed=3)
        order = build_canonical_variable_order(query)
        plan = build_skew_aware_plan(query, order, database, "dynamic")
        materialize_plan(plan, threshold=3.0)
        size = total_view_size(plan)
        light_total = sum(len(p.light) for p in plan.partitions)
        assert size >= light_total


class TestNaiveEvaluator:
    def test_matches_hand_computed_result(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(1, 10), (2, 10), (2, 20)]),
                "S": (("B", "C"), [(10, 7), (20, 8), (20, 9)]),
            }
        )
        query = parse_query("Q(A, C) = R(A, B), S(B, C)")
        result = evaluate_query_naive(query, database)
        assert result.as_dict() == {
            (1, 7): 1,
            (2, 7): 1,
            (2, 8): 1,
            (2, 9): 1,
        }

    def test_multiplicities_multiply_and_sum(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10), (1, 10), (1, 20)]), "S": (("B",), [(10,), (20,)])}
        )
        query = parse_query("Q(A) = R(A, B), S(B)")
        assert evaluate_query_naive(query, database).as_dict() == {(1,): 3}

    def test_boolean_query(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B",), [(10,)])}
        )
        query = parse_query("Q() = R(A, B), S(B)")
        assert evaluate_query_naive(query, database).as_dict() == {(): 1}


# ----------------------------------------------------------------------
# property-based: fold join against a brute-force nested-loop join
# ----------------------------------------------------------------------
small_pairs = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=15
)


class TestJoinProperties:
    @given(r_rows=small_pairs, s_rows=small_pairs)
    @settings(max_examples=60, deadline=None)
    def test_fold_join_matches_nested_loops(self, r_rows, s_rows):
        r = Relation("R", ("A", "B"))
        s = Relation("S", ("B", "C"))
        for row in r_rows:
            r.apply_delta(row, 1)
        for row in s_rows:
            s.apply_delta(row, 1)
        result = join_children(
            [BoundRelation(("A", "B"), r), BoundRelation(("B", "C"), s)], ("A", "C")
        )
        expected = {}
        for (a, b), m1 in r.items():
            for (b2, c), m2 in s.items():
                if b == b2:
                    expected[(a, c)] = expected.get((a, c), 0) + m1 * m2
        assert result == expected


# ----------------------------------------------------------------------
# property-based: the compiled join against a nested-loop oracle
# ----------------------------------------------------------------------
VARIABLES = ("A", "B", "C", "D", "E")
BACKENDS = {"dict": DictRelation, "columnar": ColumnarRelation}


def schemas(max_size=3):
    """Ordered subsets of ``VARIABLES`` (possibly empty)."""
    return st.lists(
        st.sampled_from(VARIABLES), unique=True, min_size=0, max_size=max_size
    ).map(tuple)


def contents(schema, mults):
    """``{tuple: multiplicity}`` over ``schema`` with values from a tiny domain."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(schema)), mults, max_size=6
    )


@st.composite
def join_cases(draw):
    start_schema = draw(schemas())
    sibling_schemas = draw(st.lists(schemas(), min_size=0, max_size=3))
    available = sorted(set(start_schema).union(*sibling_schemas))
    output_schema = tuple(draw(st.permutations(available)))[: draw(st.integers(0, 3))]
    signed = st.integers(-2, 2)  # zero entries included: they must vanish
    positive = st.integers(1, 3)
    return {
        "backend": draw(st.sampled_from(sorted(BACKENDS))),
        "start_schema": start_schema,
        "start": draw(contents(start_schema, signed)),
        "siblings": [
            (schema, draw(contents(schema, positive)), draw(contents(schema, positive)))
            for schema in sibling_schemas
        ],
        "output_schema": output_schema,
    }


def nested_loop_join(start_schema, start, siblings, output_schema):
    """Every combination of one entry per input, kept when the shared
    variables agree; multiplicities multiply, projections add, zeros vanish."""
    expected = {}
    inputs = [(start_schema, start)] + [(b.variables, dict(b.items())) for b in siblings]
    for combination in itertools.product(*[c.items() for _, c in inputs]):
        assignment, weight, consistent = {}, 1, True
        for (schema, _), (tup, mult) in zip(inputs, combination):
            weight *= mult
            for variable, value in zip(schema, tup):
                if assignment.setdefault(variable, value) != value:
                    consistent = False
        if consistent:
            key = tuple(assignment[v] for v in output_schema)
            expected[key] = expected.get(key, 0) + weight
    return {key: mult for key, mult in expected.items() if mult}


class TestCompiledJoin:
    @given(case=join_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_nested_loops_and_survives_content_changes(self, case):
        bound = []
        for position, (schema, rows, _) in enumerate(case["siblings"]):
            # stored column names differ from the variables: binding is positional
            columns = tuple(f"c{position}_{i}" for i in range(len(schema)))
            relation = BACKENDS[case["backend"]](f"S{position}", columns, rows)
            bound.append(BoundRelation(schema, relation))
        arguments = (case["start_schema"], case["start"], bound, case["output_schema"])
        before = dict(case["start"])
        result = fold_join(*arguments)
        assert result == nested_loop_join(*arguments)
        assert all(result.values())  # cancelled entries are absent, not zero
        assert case["start"] == before  # the caller's delta is not modified

        # the same memoised plan, after the siblings changed under it and
        # after their indexes were dropped
        for child, (_, rows, more) in zip(bound, case["siblings"]):
            for tup, mult in more.items():
                child.relation.apply_delta(tup, mult)
            for tup in list(rows)[::2]:
                child.relation.apply_delta(tup, -child.relation.multiplicity(tup))
        assert fold_join(*arguments) == nested_loop_join(*arguments)
        for child in bound:
            child.relation.invalidate_indexes()
        assert fold_join(*arguments) == nested_loop_join(*arguments)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_three_probe_modes_in_one_plan(self, backend):
        make = BACKENDS[backend]
        point = BoundRelation(("A", "B"), make("P", ("x", "y"), {(1, 2): 2, (1, 3): 1}))
        index = BoundRelation(("B", "C"), make("I", ("x", "y"), {(2, 7): 1, (2, 8): 3, (9, 9): 1}))
        scan = BoundRelation(("D",), make("F", ("x",), {(0,): 1, (5,): 2}))
        signature = (("A", "B"), (("A", "B"), ("B", "C"), ("D",)), ("D", "C", "A"))
        plan = compile_join(*signature)
        assert plan.modes == ("point", "index", "scan")
        assert compile_join(*signature) is plan  # memoised by schemas alone
        delta = {(1, 2): 1, (1, 3): 5, (4, 4): 1}
        # the steps run directly, in the signature's order (fold_join would
        # probe the smaller ``scan`` relation before ``index``: another plan)
        acc = delta
        for step, child in zip(plan.steps, (point, index, scan)):
            acc = step(acc, child.relation)
        assert acc == {
            (0, 7, 1): 2, (0, 8, 1): 6, (5, 7, 1): 4, (5, 8, 1): 12,
        }
        assert fold_join(("A", "B"), delta, [point, index, scan], ("D", "C", "A")) == acc

    def test_projection_adds_and_signed_deltas_cancel(self):
        s = BoundRelation(("B", "C"), Relation("S", ("B", "C"), {(1, 5): 2, (2, 5): 2, (3, 6): 1}))
        delta = {("a", 1): 1, ("a", 2): -1, ("a", 3): 4}
        # (a, 5) gets +2 and -2: absent.  (a, 6) survives.
        assert fold_join(("A", "B"), delta, [s], ("A", "C")) == {("a", 6): 4}
        # Boolean head: everything adds up on the empty tuple
        assert fold_join(("A", "B"), {("a", 1): 1, ("b", 3): 2}, [s], ()) == {(): 4}

    def test_empty_sibling_and_no_sibling(self):
        empty = BoundRelation(("B",), Relation("S", ("B",)))
        assert fold_join(("A", "B"), {(1, 2): 1}, [empty], ("A",)) == {}
        assert fold_join(("A", "B"), {(1, 2): 1, (1, 3): 2, (2, 2): 0}, [], ("A",)) == {(1,): 3}
        start = {(1, 2): 1}
        same = fold_join(("A", "B"), start, [], ("A", "B"))
        assert same == start and same is not start

    def test_unknown_output_variable_is_a_schema_error(self):
        s = BoundRelation(("B",), Relation("S", ("B",), {(2,): 1}))
        with pytest.raises(SchemaError):
            fold_join(("A", "B"), {(1, 2): 1}, [s], ("A", "Z"))
        with pytest.raises(SchemaError):
            fold_join(("A",), {}, [], ("Z",))  # raised by the plan, data or no data
