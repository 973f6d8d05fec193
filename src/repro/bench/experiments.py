"""Reusable experiment drivers shared by the benchmark suite and the examples.

Each driver corresponds to a measurement pattern that recurs across the
paper's figures:

* :func:`tradeoff_point` — measure preprocessing / update / delay for one
  (query, database, ε) combination (a single point of Figure 1);
* :func:`sweep_epsilon` — the full ε sweep for one database (the blue curves
  of Figures 1 and 3);
* :func:`scaling_experiment` — repeat a workload at several database sizes
  and fit the growth exponents of each runtime component against the
  theoretical exponents of Theorems 2 and 4;
* :func:`compare_engines` — run our engine and the baselines on the same
  workload (the comparison rows of Figures 4 and 5).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bench.fitting import ExponentFit, fit_exponent, theoretical_exponents
from repro.bench.timing import (
    Measurement,
    TradeoffPoint,
    measure_enumeration_delay,
    measure_update_stream,
)
from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Update, UpdateStream


def tradeoff_point(
    query,
    database: Database,
    epsilon: float,
    mode: str = "dynamic",
    updates: Optional[Iterable[Update]] = None,
    delay_limit: Optional[int] = 2000,
    enable_rebalancing: bool = True,
) -> Tuple[HierarchicalEngine, TradeoffPoint]:
    """Measure one point of the trade-off space."""
    engine = HierarchicalEngine(
        query,
        epsilon=epsilon,
        mode=mode,
        enable_rebalancing=enable_rebalancing,
        copy_database=True,
    )
    engine.load(database)
    point = TradeoffPoint(
        epsilon=epsilon,
        database_size=database.size,
        preprocessing_seconds=engine.preprocessing_seconds or 0.0,
        view_size=engine.view_size(),
    )
    if updates is not None and mode == "dynamic":
        point.update = measure_update_stream(engine, updates)
    point.delay, _produced = measure_enumeration_delay(engine, limit=delay_limit)
    return engine, point


def sweep_epsilon(
    query,
    database: Database,
    epsilons: Sequence[float],
    mode: str = "dynamic",
    updates_factory: Optional[Callable[[], UpdateStream]] = None,
    delay_limit: Optional[int] = 2000,
) -> List[TradeoffPoint]:
    """Measure every ε on the same database (and same update stream)."""
    points: List[TradeoffPoint] = []
    for epsilon in epsilons:
        updates = updates_factory() if updates_factory is not None else None
        _engine, point = tradeoff_point(
            query, database, epsilon, mode=mode, updates=updates, delay_limit=delay_limit
        )
        points.append(point)
    return points


def scaling_experiment(
    query,
    database_factory: Callable[[int], Database],
    sizes: Sequence[int],
    epsilon: float,
    mode: str = "dynamic",
    updates_factory: Optional[Callable[[Database, int], UpdateStream]] = None,
    delay_limit: Optional[int] = 1000,
) -> Dict[str, object]:
    """Fit measured growth exponents against the theory for one ε.

    Returns a dict with the per-size points, the fitted exponents per
    component, and the theoretical exponents for the query's widths.  The
    delay fit reads each point's p95 delay, not its maximum: one GC pause
    among the ~1 000 samples of a point would otherwise set the exponent.
    """
    points: List[TradeoffPoint] = []
    for size in sizes:
        database = database_factory(size)
        updates = (
            updates_factory(database, size) if updates_factory is not None else None
        )
        engine, point = tradeoff_point(
            query, database, epsilon, mode=mode, updates=updates, delay_limit=delay_limit
        )
        points.append(point)
    ns = [point.database_size for point in points]
    fits: Dict[str, ExponentFit] = {
        "preprocessing": fit_exponent(ns, [p.preprocessing_seconds for p in points]),
    }
    if all(p.delay is not None for p in points):
        fits["delay"] = fit_exponent(ns, [p.delay.p95 for p in points])
    if all(p.update is not None for p in points):
        fits["update"] = fit_exponent(ns, [p.update.mean for p in points])
    engine_for_widths = HierarchicalEngine(query, epsilon=epsilon, mode=mode)
    theory = theoretical_exponents(
        engine_for_widths.static_width, engine_for_widths.dynamic_width, epsilon
    )
    return {"points": points, "fits": fits, "theory": theory}


def compare_engines(
    query,
    database: Database,
    engine_factories: Mapping[str, Callable[[], object]],
    updates_factory: Optional[Callable[[], UpdateStream]] = None,
    delay_limit: Optional[int] = 2000,
) -> List[Dict[str, object]]:
    """Run several engines on the same workload and tabulate the components."""
    rows: List[Dict[str, object]] = []
    for name, factory in engine_factories.items():
        engine = factory()
        engine.load(database)
        row: Dict[str, object] = {
            "engine": name,
            "N": database.size,
            "preprocess_s": engine.preprocessing_seconds or 0.0,
        }
        if updates_factory is not None:
            updates = updates_factory()
            measurement = measure_update_stream(engine, updates)
            row["update_mean_s"] = measurement.mean
            row["update_p95_s"] = measurement.p95
        delay, produced = measure_enumeration_delay(engine, limit=delay_limit)
        row["delay_mean_s"] = delay.mean
        row["delay_max_s"] = delay.maximum
        row["tuples_enumerated"] = produced
        rows.append(row)
    return rows
