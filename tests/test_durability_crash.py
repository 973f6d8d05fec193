"""Kill-anywhere crash-recovery tests: exhaustive sweep, property, mutation.

Three layers of evidence that the durability subsystem actually works:

1. an **exhaustive sweep** over every instrumented crash point of a small
   seeded conformance case, the checkpoint writer's included, at every
   writer lag (inside the scheduling commit, one commit behind, not before
   ``close()``) — the harness arms hit k for every k in
   ``1..count_crash_sites(case, lag)`` and demands the durability contract:
   version, ε, threshold base, base relations in insertion order, result,
   invariants, and the normalised enumeration order of a never-crashed twin;
2. a **Hypothesis property**: random (database, stream, ε, crash point)
   cases, single-engine and cold sharded recovery at 1/2/4 shards with
   forced rebalances, always matching a never-crashed twin and passing
   ``check_invariants``;
3. a **mutation catch**: a WAL-record-dropping bug injected into
   ``DurabilityManager._commit`` must be detected by the harness (as
   silent durable loss, which a naive kill-and-resume loop would mask)
   and shrunk to a ≤5-update repro.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance import (
    ConformanceCase,
    count_crash_sites,
    crash_recovery_failure,
    run_crash_recovery_case,
)
from repro.conformance.runner import UNTIL_CLOSE, WRITER_LAGS, SteppedWriter
from repro.conformance.shrink import shrink_case
from repro.data.update import Update
from repro.durability.manager import DurabilityManager
from repro.sharding import ShardedEngine

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def make_case(r_rows, s_rows, updates, epsilons=(0.0, 0.5, 1.0), checkpoints=3):
    """A ConformanceCase over the two-atom path query from raw rows."""
    return ConformanceCase(
        query=PATH_QUERY,
        relations={
            "R": (("A", "B"), [(tuple(row), 1) for row in r_rows]),
            "S": (("B", "C"), [(tuple(row), 1) for row in s_rows]),
        },
        updates=[(rel, tuple(tup), mult) for rel, tup, mult in updates],
        epsilons=tuple(epsilons),
        checkpoints=checkpoints,
    )


SEEDED_CASE = make_case(
    r_rows=[(1, 1), (1, 2), (2, 3), (3, 1)],
    s_rows=[(1, 5), (2, 5), (3, 6)],
    updates=[
        ("R", (4, 1), 1),
        ("S", (1, 7), 1),
        ("R", (1, 2), 1),
        ("S", (2, 8), 1),
        ("R", (4, 1), -1),
        ("S", (5, 5), 1),
        ("R", (2, 3), -1),
        ("S", (6, 9), 1),
    ],
)


LAG_IDS = ["lag0", "lag1", "until-close"]


class TestExhaustiveSweep:
    @pytest.mark.parametrize("lag", WRITER_LAGS, ids=LAG_IDS)
    def test_every_crash_point_recovers(self, lag):
        """Arm every hit 1..N of the seeded case at this writer lag."""
        total = count_crash_sites(SEEDED_CASE, writer_lag=lag)
        # the workload must be big enough to reach WAL appends, fsyncs,
        # and at least one full checkpoint cycle
        assert total >= 10
        report = run_crash_recovery_case(
            SEEDED_CASE, crash_hit=range(1, total + 1), writer_lag=lag
        )
        assert report.supported
        assert report.mismatches == []

    @pytest.mark.parametrize("lag", WRITER_LAGS, ids=LAG_IDS)
    def test_site_coverage_of_the_sweep(self, tmp_path, lag):
        """Every WAL and checkpoint site is hit at every lag — and the
        lagging writer really dies in the two windows the contract names:
        WAL rotated but checkpoint not renamed, renamed but not pruned."""
        from repro.core.api import HierarchicalEngine
        from repro.durability import CrashPointInjector, DurabilityConfig, injected
        from repro.durability import checkpoint as ckpt
        from repro.durability import wal as walmod

        config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=0.2)
        windows = set()

        class Spy(CrashPointInjector):
            def hit(self, site):
                checkpoints = ckpt.find_checkpoints(config.path)
                segments = walmod.wal_segments(config.path)
                if site == "checkpoint-rename" and segments:  # none yet at load()
                    if segments[-1][0] > checkpoints[-1][0]:
                        windows.add("rotated-not-renamed")
                if site == "checkpoint-cleanup":
                    if len(checkpoints) > config.keep_checkpoints:
                        windows.add("renamed-not-pruned")
                super().hit(site)

        recorder = Spy(None)
        with injected(recorder):
            engine = HierarchicalEngine(
                PATH_QUERY, epsilon=0.5, durability=config
            )
            engine.load(SEEDED_CASE.database())
            writer = engine._durability.writer = SteppedWriter(lag)
            for update in SEEDED_CASE.update_objects():
                engine.apply(update)
                writer.tick()
            engine.close()
        hit_sites = {site for site, count in recorder.counts.items() if count}
        assert {
            "wal-append",
            "wal-torn",
            "wal-fsync",
            "checkpoint-write",
            "checkpoint-fsync",
            "checkpoint-rename",
            "checkpoint-cleanup",
        } <= hit_sites
        # a writer that only runs at close() writes one checkpoint, so it
        # never has anything to prune
        expected = {"rotated-not-renamed"}
        if lag != UNTIL_CLOSE:
            expected.add("renamed-not-pruned")
        assert windows == expected
        assert list(config.path.glob("*.tmp")) == []

    def test_case_deterministic_default_hit(self):
        report = run_crash_recovery_case(SEEDED_CASE)
        assert report.supported
        assert report.mismatches == []

    def test_non_hierarchical_case_is_skipped(self):
        case = ConformanceCase(
            query="Q(A, B, C) = R(A, B), S(B, C), T(C, A)",
            relations={
                "R": (("A", "B"), []),
                "S": (("B", "C"), []),
                "T": (("C", "A"), []),
            },
            updates=[],
        )
        report = run_crash_recovery_case(case)
        assert not report.supported
        assert report.mismatches == []


value = st.integers(min_value=0, max_value=5)
pair = st.tuples(value, value)
update_entry = st.tuples(
    st.sampled_from(("R", "S")), pair, st.sampled_from((1, -1))
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    r_rows=st.lists(pair, min_size=0, max_size=5),
    s_rows=st.lists(pair, min_size=0, max_size=5),
    updates=st.lists(update_entry, min_size=1, max_size=10),
    epsilons=st.sampled_from(
        ((0.0, 0.5, 1.0), (0.25, 0.75), (0.0, 1.0), (0.5,))
    ),
    checkpoints=st.integers(min_value=1, max_value=4),
    crash_seed=st.integers(min_value=0, max_value=1 << 20),
)
def test_crash_anywhere_property(
    r_rows, s_rows, updates, epsilons, checkpoints, crash_seed
):
    """Random case, random crash point: recovery always matches the twin.

    The harness itself asserts the full contract — recovered version,
    result, ε / threshold base / base-relation insertion order and the
    normalised enumeration order vs a never-crashed durable twin,
    invariants, and durable-acknowledgement on a clean close; crashes
    between WAL append and fsync, mid-checkpoint, and mid-rename are all
    reachable because the crash hit ranges over every instrumented site
    the workload hits, at the case's own checkpoint-writer lag.
    """
    case = make_case(r_rows, s_rows, updates, epsilons, checkpoints)
    total = count_crash_sites(case)
    hit = 1 + crash_seed % max(1, total)
    mismatch = crash_recovery_failure(case, crash_hit=hit)
    assert mismatch is None, str(mismatch)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    updates=st.lists(update_entry, min_size=1, max_size=12),
    shards=st.sampled_from((1, 2, 4)),
    retune_at=st.integers(min_value=0, max_value=11),
    target=st.sampled_from((0.0, 0.25, 0.75, 1.0)),
)
def test_sharded_cold_recovery_property(tmp_path_factory, updates, shards, retune_at, target):
    """Cold ShardedEngine.recover() matches a never-crashed sharded twin.

    A mid-stream retune forces minor/major rebalances on every shard (the
    threshold moves, so views migrate between heavy and light layouts);
    the recovered deployment must still agree tuple-for-tuple, in merge
    order, at the same version.
    """
    from repro.exceptions import RejectedUpdateError

    tmp_path = tmp_path_factory.mktemp("sharded-recovery")
    case = make_case([(1, 1), (2, 2)], [(1, 3), (2, 4)], updates)

    def run(engine):
        engine.load(case.database())
        for index, update in enumerate(case.update_objects()):
            if index == retune_at:
                engine.retune(target)
            try:
                engine.apply(update)
            except RejectedUpdateError:
                pass
        return (
            engine.shard_versions(),
            dict(engine.result()),
            list(engine.enumerate()),
        )

    durable = ShardedEngine(
        PATH_QUERY,
        shards=shards,
        epsilon=0.5,
        executor="serial",
        durability=str(tmp_path / "wal"),
    )
    expected = run(durable)
    durable.close()

    twin = ShardedEngine(PATH_QUERY, shards=shards, epsilon=0.5, executor="serial")
    assert run(twin) == expected
    twin.close()

    recovered = ShardedEngine(
        PATH_QUERY,
        shards=shards,
        epsilon=0.5,
        executor="serial",
        durability=str(tmp_path / "wal"),
    )
    recovered.recover()
    # per-shard versions are the durable truth; the facade ingestion
    # counter resumes at their maximum (see ShardedEngine.recover)
    assert recovered.shard_versions() == expected[0]
    assert recovered.version == max(expected[0])
    assert dict(recovered.result()) == expected[1]
    assert list(recovered.enumerate()) == expected[2]
    recovered.check_invariants()
    recovered.close()


class TestMutationCatch:
    """The injected WAL-record-dropping bug is caught and shrunk small."""

    @staticmethod
    def _dropping_commit():
        real_commit = DurabilityManager.commit

        def dropping(self, event, version):
            if version % 3 == 0:
                return  # the bug: silently drop every third commit
            real_commit(self, event, version)

        return mock.patch.object(DurabilityManager, "commit", dropping)

    def test_unmutated_case_is_clean(self):
        assert crash_recovery_failure(SEEDED_CASE) is None

    def test_dropping_wal_records_is_detected(self):
        with self._dropping_commit():
            mismatch = crash_recovery_failure(SEEDED_CASE)
        assert mismatch is not None
        assert mismatch.kind == "recovery-durable-loss"
        assert "durable" in mismatch.detail

    def test_mutation_shrinks_to_tiny_repro(self):
        def predicate(case):
            found = crash_recovery_failure(case)
            if found is not None and found.kind == "recovery-durable-loss":
                return found
            return None

        with self._dropping_commit():
            shrunk = shrink_case(SEEDED_CASE, predicate, max_evaluations=150)
            assert predicate(shrunk) is not None
        assert len(shrunk.updates) <= 5
        # sanity: the shrunk case is clean once the bug is removed
        assert crash_recovery_failure(shrunk) is None
