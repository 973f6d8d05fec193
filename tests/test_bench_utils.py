"""Tests for the benchmark harness utilities (timing, fitting, reporting)."""

import math

import pytest

from repro import HierarchicalEngine
from repro.bench import (
    Measurement,
    compare_engines,
    fit_exponent,
    format_series,
    format_table,
    measure_enumeration_delay,
    measure_preprocessing,
    measure_update_stream,
    print_table,
    scaling_experiment,
    sweep_epsilon,
    theoretical_exponents,
    time_call,
    tradeoff_point,
)
from repro.baselines import NaiveRecomputeEngine
from repro.workloads import mixed_stream, path_query_database

PATH = "Q(A, C) = R(A, B), S(B, C)"


class TestMeasurement:
    def test_from_samples_statistics(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        m = Measurement.from_samples("x", samples)
        assert m.count == 4
        assert m.total == pytest.approx(10.0)
        assert m.mean == pytest.approx(2.5)
        assert m.median == pytest.approx(2.5)
        assert m.maximum == pytest.approx(4.0)
        assert m.p95 in samples

    def test_empty_samples(self):
        m = Measurement.from_samples("x", [])
        assert m.count == 0 and m.total == 0.0

    def test_as_dict_keys(self):
        m = Measurement.from_samples("x", [1.0])
        assert set(m.as_dict()) == {"count", "total", "mean", "median", "p95", "max"}


class TestFitting:
    def test_fit_recovers_known_exponent(self):
        sizes = [100, 200, 400, 800, 1600]
        values = [2e-6 * n ** 1.5 for n in sizes]
        fit = fit_exponent(sizes, values)
        assert fit.exponent == pytest.approx(1.5, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.matches(1.5)
        assert not fit.matches(0.0)

    def test_fit_constant_values_gives_zero_exponent(self):
        fit = fit_exponent([10, 100, 1000], [5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_fit_handles_zero_values(self):
        fit = fit_exponent([10, 100], [0.0, 0.0])
        assert math.isfinite(fit.exponent)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([10], [1.0])

    def test_theoretical_exponents(self):
        theory = theoretical_exponents(static_width=2, dynamic_width=1, epsilon=0.5)
        assert theory == {"preprocessing": 1.5, "delay": 0.5, "update": 0.5}
        corner = theoretical_exponents(2, 1, 1.0)
        assert corner == {"preprocessing": 2.0, "delay": 0.0, "update": 1.0}


class TestReporting:
    def test_format_table_alignment_and_columns(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "c": "x"}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        for column in ("a", "b", "c"):
            assert column in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_print_table_returns_text(self, capsys):
        text = print_table([{"a": 1}], title="t")
        captured = capsys.readouterr()
        assert "a" in text and "a" in captured.out

    def test_format_series(self):
        text = format_series("curve", [1, 2], [0.1, 0.2], x_name="N", y_name="time")
        assert "curve" in text and "N" in text and "time" in text

    def test_format_value_styles(self):
        text = format_table([{"small": 1e-7, "big": 123456.0, "plain": 0.25}])
        assert "e-07" in text or "e-7" in text
        assert "0.2500" in text


class TestTimingHelpers:
    def test_time_call_is_nonnegative(self):
        assert time_call(lambda: sum(range(100))) >= 0.0

    def test_measure_preprocessing(self):
        db = path_query_database(100, seed=1)
        engine, seconds = measure_preprocessing(
            lambda: HierarchicalEngine(PATH, epsilon=0.5), db
        )
        assert seconds >= 0.0
        assert engine.result() is not None

    def test_measure_update_stream(self):
        db = path_query_database(100, seed=2)
        engine = HierarchicalEngine(PATH, epsilon=0.5).load(db)
        measurement = measure_update_stream(engine, mixed_stream(db, 20, seed=3))
        assert measurement.count == 20

    def test_measure_enumeration_delay_with_limit(self):
        db = path_query_database(150, seed=4)
        engine = HierarchicalEngine(PATH, epsilon=0.5).load(db)
        measurement, produced = measure_enumeration_delay(engine, limit=10)
        assert produced <= 10
        assert measurement.count >= produced


class TestExperimentDrivers:
    def test_tradeoff_point_row_shape(self):
        db = path_query_database(150, seed=5)
        _engine, point = tradeoff_point(
            PATH, db, 0.5, updates=mixed_stream(db, 15, seed=6), delay_limit=50
        )
        row = point.as_row()
        for key in ("epsilon", "N", "preprocess_s", "update_mean_s", "delay_max_s"):
            assert key in row

    def test_sweep_epsilon_lengths(self):
        db = path_query_database(120, seed=7)
        points = sweep_epsilon(PATH, db, [0.0, 1.0], delay_limit=50)
        assert [p.epsilon for p in points] == [0.0, 1.0]

    def test_scaling_experiment_outputs_fits_and_theory(self):
        result = scaling_experiment(
            PATH,
            lambda size: path_query_database(size, seed=8),
            sizes=[80, 160],
            epsilon=0.5,
            updates_factory=lambda db, size: mixed_stream(db, 10, seed=9),
            delay_limit=50,
        )
        assert set(result["fits"]) >= {"preprocessing", "delay", "update"}
        assert result["theory"]["preprocessing"] == pytest.approx(1.5)

    def test_scaling_delay_fit_reads_p95_not_the_maximum(self, monkeypatch):
        """The fitted delay exponent follows the p95 delay, which grows as
        N^0.5 here, while one noisy maximum per point (a GC pause) is ignored."""
        import repro.bench.experiments as experiments
        from repro.bench.timing import TradeoffPoint

        noise = iter([5e-3, 1e-6, 2e-2, 3e-5])

        def fake_point(query, size, epsilon, **_kwargs):
            p95 = 1e-6 * size**0.5
            delay = Measurement("delay", 1200, 0.0, p95 / 2, p95 / 2, p95, next(noise))
            return None, TradeoffPoint(epsilon, size, 1e-6 * size, delay=delay)

        monkeypatch.setattr(experiments, "tradeoff_point", fake_point)
        result = scaling_experiment(
            PATH, lambda size: size, sizes=[1_000, 4_000, 16_000, 64_000], epsilon=0.5
        )
        assert result["fits"]["delay"].exponent == pytest.approx(0.5, abs=1e-6)

    def test_compare_engines_rows(self):
        db = path_query_database(120, seed=10)
        rows = compare_engines(
            PATH,
            db,
            {
                "ivm": lambda: HierarchicalEngine(PATH, epsilon=0.5),
                "recompute": lambda: NaiveRecomputeEngine(PATH),
            },
            updates_factory=lambda: mixed_stream(db, 10, seed=11),
            delay_limit=50,
        )
        assert [row["engine"] for row in rows] == ["ivm", "recompute"]
        assert all("update_mean_s" in row for row in rows)
