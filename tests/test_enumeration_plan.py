"""Compiled enumeration against the tree-walking interpreter it replaced.

Enumeration order is a contract, so the differential tests compare
*sequences* with ``tests/reference_enumeration.py`` (the parent's code,
verbatim), never the compiled plans with themselves.  The count-based tests
pin what compiling buys: nothing is opened before the first ``next``, every
strategy tree is opened once per read, and plans are shared per shape and
never recompiled.
"""

import gc
import random
import sys
from itertools import islice

import pytest

from repro import Database, HierarchicalEngine
from repro.conformance.datagen import DataProfile, random_database, random_update_stream
from repro.conformance.queries import HEAD_MODES, random_labeled_query
from repro.data.relation import Relation, storage_backend
from repro.engine import evaluate_query_naive
from repro.enumeration import UnionIterator, compile_enumeration
from repro.enumeration import plan as plan_module
from repro.exceptions import UnsupportedQueryError
from repro.query import parse_query
from repro.workloads.scenarios import SCENARIOS
from tests import reference_enumeration as reference

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)
PROFILES = [
    DataProfile(tuples_per_relation=25, domain=6, skew=skew, heavy_fraction=heavy)
    for skew in (0.0, 1.2)
    for heavy in (0.0, 0.4)
]


# Sequences are compared up to this many tuples: a product of two components
# can be huge, and the interpreter is slow.
PREFIX = 1500


def reference_sequence(engine):
    return list(
        islice(
            reference.reference_enumerate(engine._skew_plan.component_trees, engine.query.head),
            PREFIX,
        )
    )


def assert_same_reads(engine, label):
    """``enumerate()`` and point lookups equal the interpreter's, as sequences."""
    trees, head = engine._skew_plan.component_trees, tuple(engine.query.head)
    want = reference_sequence(engine)
    assert list(islice(engine.enumerate(), PREFIX)) == want, label
    enumerator = engine.enumerate()
    absent = [tuple(0 for _ in head), tuple(5 for _ in head)]
    for tup in [tup for tup, _ in want[:4]] + absent:
        assert enumerator.lookup(tup) == reference.lookup_head_multiplicity(
            trees, head, tup
        ), (label, tup)
    return want


def differential_run(query, profile, epsilon, seed, updates=30, every=10):
    """Load, stream inserts/deletes, compare at every checkpoint; snapshots
    captured on the way are compared after the stream has moved on."""
    database = random_database(query, profile, seed)
    engine = HierarchicalEngine(query, epsilon=epsilon).load(database)
    label = (str(query), profile, epsilon, seed)
    assert_same_reads(engine, label)
    held = []
    stream = random_update_stream(database, updates, profile, seed=seed)
    for index, update in enumerate(stream, 1):
        engine.apply(update)
        if index % every == 0:
            held.append((engine.snapshot(), assert_same_reads(engine, label)))
    for snapshot, want in held:
        assert list(islice(snapshot.enumerate(), PREFIX)) == want, label
        for tup, mult in want[:3]:
            assert snapshot.lookup(tup) == mult, label
        snapshot.close()


def supported_queries(count, seed):
    """Seeded random hierarchical queries the planner accepts, head modes
    (closed / random / full / boolean) and one- and two-component shapes
    in rotation."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        labeled = random_labeled_query(
            rng,
            max_depth=rng.choice((2, 3, 4)),
            max_children=rng.choice((2, 3)),
            max_roots=1 + len(queries) % 2,
            head_mode=HEAD_MODES[len(queries) % len(HEAD_MODES)],
        )
        if len(labeled.query.atoms) > 9:
            continue
        try:
            HierarchicalEngine(labeled.query)
        except UnsupportedQueryError:
            continue
        queries.append(labeled.query)
    return queries


class TestSequenceIdentity:
    @pytest.mark.parametrize("backend", ["columnar", "dict"])
    def test_random_queries_match_the_interpreter(self, backend):
        queries = supported_queries(24, seed=19)
        assert any(len(q.connected_components()) > 1 for q in queries)
        assert any(not q.head for q in queries)
        with storage_backend(backend):
            for index, query in enumerate(queries):
                profile = PROFILES[index % len(PROFILES)]
                for epsilon in EPSILONS:
                    differential_run(query, profile, epsilon, seed=index)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registered_scenarios_match_the_interpreter(self, name):
        scenario = SCENARIOS[name]
        database = scenario.make_database(7, 0.05)
        engine = HierarchicalEngine(scenario.query, epsilon=0.5).load(database)
        assert_same_reads(engine, name)
        for index, update in enumerate(scenario.make_stream(database, 60, 7), 1):
            engine.apply(update)
            if index % 30 == 0:
                assert_same_reads(engine, (name, index))

    def test_products_too_deep_to_inline_move_into_generators(self, monkeypatch):
        """With the loop-depth limit at 1 every Product past its first loop
        is a generator of its own: same sequences."""
        monkeypatch.setattr(plan_module, "MAX_LOOP_DEPTH", 1)
        compile_enumeration.cache_clear()
        try:
            for index, query in enumerate(supported_queries(12, seed=23)):
                for epsilon in (0.0, 0.5):
                    differential_run(query, PROFILES[index % len(PROFILES)], epsilon, index)
        finally:
            compile_enumeration.cache_clear()

    def test_a_star_wider_than_the_nesting_limit_compiles(self):
        """12 loops in one Product: CPython refuses more than 20 nested
        blocks, the compiler moves the tail out at ``MAX_LOOP_DEPTH``."""
        width = 12
        text = (
            f"Q({', '.join(f'A{i}' for i in range(width))}) = "
            + ", ".join(f"R{i}(B, A{i})" for i in range(width))
        )
        rows = {
            f"R{i}": (("B", f"A{i}"), [(b, a) for b in range(3) for a in range(1 + (i % 7 == 0))])
            for i in range(width)
        }
        rows["R11"] = (("B", "A11"), [(0, 0), (1, 0)])  # bucket 2 dies at a late child
        database = Database.from_dict(rows)
        truth = evaluate_query_naive(parse_query(text), database).as_dict()
        for epsilon in (0.0, 1.0):
            engine = HierarchicalEngine(text, epsilon=epsilon).load(database)
            assert list(engine.enumerate()) == reference_sequence(engine)
            assert engine.result() == truth
        heavy = HierarchicalEngine(text, epsilon=0.0).load(database)._skew_plan.all_trees()[0]
        head = tuple(parse_query(text).head)
        assert "def p" in compile_enumeration(heavy.shape(), head).source


class TestUnionIsALoop:
    def test_iterative_union_enumerates_like_the_recursive_one(self):
        """Figure 15 as a loop over levels: the sequence of the recursive
        version, with no more calls into the sources."""
        rng = random.Random(5)
        for _ in range(200):
            contents = [
                {(rng.randrange(8),): rng.randint(1, 3) for _ in range(rng.randrange(6))}
                for _ in range(rng.randint(1, 6))
            ]
            logs = ([], [])
            recursive, iterative = (
                cls([_LoggedSource(index, c, log) for index, c in enumerate(contents)])
                for cls, log in zip((reference.UnionIterator, UnionIterator), logs)
            )
            # two more calls than there are tuples: exhaustion is sticky
            rounds = len({key for c in contents for key in c}) + 2
            assert [recursive.next() for _ in range(rounds)] == [
                iterative.next() for _ in range(rounds)
            ]
            for kind in ("next", "lookup"):
                assert sum(e[0] == kind for e in logs[1]) <= sum(e[0] == kind for e in logs[0])

    @staticmethod
    def heavy_path_engine(keys, degree):
        """``keys`` join keys of one degree on both sides, all heavy at ε = 0."""
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, b) for b in range(keys) for a in range(degree)]),
                "S": (("B", "C"), [(b, (b + c) % 7) for b in range(keys) for c in range(degree)]),
            }
        )
        return HierarchicalEngine(PATH_QUERY, epsilon=0.0).load(database), database

    def test_1500_heavy_keys_do_not_recurse(self):
        """ε → 0: one Union source per heavy key.  The parent nested one
        iterator (and one Python frame per ``next``) per source and died
        with RecursionError from ``engine.result()``."""
        engine, database = self.heavy_path_engine(1500, degree=1)
        heavy = engine._skew_plan.indicator_triples[0].exists_heavy
        assert len(heavy) == 1500 > sys.getrecursionlimit() // 2
        truth = evaluate_query_naive(parse_query(PATH_QUERY), database).as_dict()
        assert engine.result() == truth
        assert engine.snapshot().result() == truth

    def test_the_interpreter_agrees_below_its_recursion_limit(self):
        engine, _ = self.heavy_path_engine(100, degree=3)
        assert list(engine.enumerate()) == reference_sequence(engine)


class _LoggedSource:
    def __init__(self, index, contents, log):
        self.index, self.contents, self.log = index, contents, log
        self._items = iter(list(contents.items()))

    def next(self):
        self.log.append(("next", self.index))
        return next(self._items, None)

    def lookup(self, key):
        self.log.append(("lookup", self.index, key))
        return self.contents.get(key, 0)


@pytest.fixture
def counted_reads(monkeypatch):
    """Count every ``items()`` / ``ensure_index()`` call per relation name."""
    counts = {}
    for cls in {Relation, *Relation.__subclasses__()}:
        for method in ("items", "ensure_index"):
            original = cls.__dict__.get(method)
            if original is None:
                continue

            def counting(self, *args, _original=original, _method=method):
                counts[(self.name, _method)] = counts.get((self.name, _method), 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(cls, method, counting)
    return counts


def skewed_path_engine(epsilon=0.5):
    database = Database.from_dict(
        {
            "R": (("A", "B"), [(a, a % 3) for a in range(60)] + [(a, 10 + a) for a in range(20)]),
            "S": (("B", "C"), [(c % 3, c) for c in range(60)] + [(10 + c, c) for c in range(20)]),
        }
    )
    return HierarchicalEngine(PATH_QUERY, epsilon=epsilon).load(database)


class TestOpenedOncePerRead:
    def test_constructing_an_enumerator_touches_no_relation(self, counted_reads):
        engine = skewed_path_engine()
        snapshot = engine.snapshot()
        copies = dict(engine.snapshot_stats)
        counted_reads.clear()
        engine.enumerate()
        snapshot.enumerate()
        iter(engine.enumerate())  # a generator that was never advanced
        assert counted_reads == {}
        assert engine.snapshot_stats == copies  # nothing frozen either

    def test_one_full_read_opens_each_strategy_tree_once(self, counted_reads):
        engine = skewed_path_engine()
        heavy = engine._skew_plan.indicator_triples[0].exists_heavy
        assert len(heavy) == 3
        list(engine.enumerate())  # builds the indexes the buckets probe
        counted_reads.clear()
        result = list(engine.enumerate())
        # the heavy tree grounds its indicator once (the parent did it in
        # the constructor and again when iteration reset the component),
        # the light tree scans its root view once
        light = engine._skew_plan.all_trees()[1].relation()
        assert counted_reads[(light.name, "items")] == 1
        # (Union also looks every tuple of the light tree up in the heavy
        # tree, which is one pass over the heavy keys each)
        assert counted_reads[(heavy.name, "items")] == 1 + len(light)
        # one bucket per heavy key, opened once: R's index is resolved when
        # a bucket starts, S's once per R-tuple of the bucket
        assert counted_reads[("R", "ensure_index")] == len(heavy)
        assert counted_reads[("S", "ensure_index")] == sum(
            1 for (a, b), _ in engine._database.relation("R").items() if (b,) in heavy
        )
        assert dict(result) == engine.result()

    def test_a_first_page_opens_only_the_buckets_it_reads(self, counted_reads):
        """Buckets are opened when Union first asks them for a tuple; the
        parent primed every bucket of every tree before the first tuple."""
        engine = skewed_path_engine()
        list(engine.enumerate())
        counted_reads.clear()
        iterator = iter(engine.enumerate())
        assert len([next(iterator) for _ in range(5)]) == 5
        assert counted_reads[("R", "ensure_index")] == 1


    def test_reads_leave_nothing_to_the_cyclic_collector(self):
        """A finished or abandoned read must free the frozen relations it
        bound by reference count: a copy of a large view that waits for the
        collector is resident memory (it showed as +10 % ``server_rss_mb``
        on ``read_while_write`` while Union held a cycle)."""
        engine = skewed_path_engine()
        engine.snapshot().result()
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                snapshot = engine.snapshot()
                iterator = iter(snapshot.enumerate())
                next(iterator)
                del iterator  # abandoned mid-page
                snapshot.lookup((1, 1))
                snapshot.result()
                snapshot.close()
                list(islice(engine.enumerate(), 5))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOnePlanPerShape:
    def test_engines_with_the_same_query_share_plans_and_nothing_recompiles(self):
        first = skewed_path_engine()
        list(first.enumerate())
        before = compile_enumeration.cache_info()
        second = skewed_path_engine(epsilon=0.25)
        plans = [
            [compile_enumeration(tree.shape(), ("A", "C")) for tree in engine._skew_plan.all_trees()]
            for engine in (first, second)
        ]
        assert all(a is b for a, b in zip(*plans))
        list(second.enumerate())
        second.snapshot().result()
        second.retune(0.75)  # re-partitions and rematerializes every view
        list(second.enumerate())
        for a in range(1_000, 1_200):  # doubles the database: a major rebalance
            second.insert("R", (a, a % 3))
        assert second.rebalance_stats.major_rebalances >= 1
        list(second.enumerate())
        second.load(first._database)  # a new SkewAwarePlan, the same shapes
        assert second.result() == first.result()
        list(second.enumerate())
        assert compile_enumeration.cache_info().misses == before.misses

    def test_a_plan_reads_shape_and_head_only(self):
        engine = skewed_path_engine()
        heavy, light = engine._skew_plan.all_trees()
        assert heavy.shape() == (
            "view",
            ("B",),
            (
                ("indicator", ("B",), ()),
                ("view", ("B",), (("leaf", ("A", "B"), ()),)),
                ("view", ("B",), (("leaf", ("B", "C"), ()),)),
            ),
        )
        plan = compile_enumeration(heavy.shape(), ("A", "C"))
        assert plan.out_vars == ("A", "C")
        assert "multiplicity" in plan.source and "dict(" not in plan.source
        # head order is part of the key: the same tree, other emit positions
        flipped = compile_enumeration(heavy.shape(), ("C", "A"))
        assert flipped is not plan and flipped.out_vars == ("C", "A")
        opened, lookup = plan.bind(heavy.relations())
        assert dict(opened()) == {
            key: lookup(key) for key in engine.result() if lookup(key)
        }
