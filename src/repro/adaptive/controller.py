"""The adaptive ε policy: cost model plus hysteresis controller.

The paper leaves ε as a free parameter: update time ``O(N^{δε})`` against
enumeration delay ``O(N^{1−ε})`` (Theorems 2 and 4).  A fixed choice is
right only for a fixed workload — a write burst wants small ε, a read-heavy
serving phase wants large ε.  The two classes here close the loop:

* :class:`CostModel` predicts the per-event cost of running at a candidate
  ε.  The *shape* comes from :meth:`repro.core.planner.QueryPlan.\
expected_exponents` — moving from the current ε to a candidate scales the
  update term by ``N^{δ(ε−ε_cur)}`` and the read term by ``N^{ε_cur−ε}`` —
  and the *scale* comes from telemetry: the observed EWMA per-event costs at
  the current ε anchor both terms, so the model needs no hand-tuned
  constants.  The asymptotic ratios deliberately over-estimate the cost of
  moving away from the current operating point (real constants are smaller
  than ``N^Δ``), which acts as built-in damping: the controller only moves
  when the observed mix clearly calls for it.
* :class:`AdaptiveController` evaluates the model over a candidate grid and
  retunes the engine when the predicted win clears a hysteresis factor, at
  most once per cooldown window.  Retuning costs one preprocessing pass
  (:meth:`~repro.core.api.HierarchicalEngine.retune`), so the policy errs
  toward staying put.

The controller drives any engine exposing ``epsilon`` / ``plan`` /
``telemetry`` / ``retune`` — both :class:`~repro.core.api.\
HierarchicalEngine` and :class:`~repro.sharding.engine.ShardedEngine` —
and :class:`repro.core.serving.EngineServer` consults it after every
committed batch for hands-off auto-retuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adaptive.telemetry import WorkloadTelemetry

DEFAULT_EPSILON_GRID: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ShardCapacityConfig:
    """The MAAS-style capacity policy for shard-count proposals.

    A shard nominally holds ``shard_capacity`` base tuples; like MAAS
    pod accounting (total/used/available with an over-commit ratio), the
    *admitted* per-shard total is ``shard_capacity * over_commit_ratio``
    — the slack absorbs transient skew so a brief hot shard does not
    trigger a fleet rebuild.  A split is proposed when any shard's used
    exceeds its over-committed total; a merge when the whole fleet's
    used would fit in ``current_shards - 1`` shards with ``shrink_margin``
    headroom to spare (the asymmetry is deliberate: a reshard costs a
    full re-route, so shrinking must be clearly safe, not merely
    possible).
    """

    shard_capacity: int
    over_commit_ratio: float = 1.5
    min_shards: int = 1
    max_shards: int = 64
    shrink_margin: float = 0.6

    def __post_init__(self) -> None:
        if self.shard_capacity <= 0:
            raise ValueError("shard_capacity must be a positive tuple count")
        if self.over_commit_ratio < 1.0:
            raise ValueError("over_commit_ratio must be >= 1.0")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        if not 0.0 < self.shrink_margin <= 1.0:
            raise ValueError("shrink_margin must lie in (0, 1]")


@dataclass(frozen=True)
class ShardCapacity:
    """One shard's capacity accounting: total / used / available."""

    shard: int
    total: int
    used: int

    @property
    def available(self) -> int:
        return self.total - self.used


class CostModel:
    """Telemetry-anchored per-event cost prediction over candidate ε."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def predict(
        self,
        epsilon: float,
        current_epsilon: float,
        size: int,
        telemetry: WorkloadTelemetry,
    ) -> float:
        """Predicted per-event cost (seconds) of running at ``epsilon``.

        ``cost(ε) = (1−f)·C_u·N^{u(ε)−u(ε_cur)} + f·C_r·N^{d(ε)−d(ε_cur)}``
        where ``u``/``d`` are the update/delay exponents of
        ``plan.expected_exponents``, ``f`` is the EWMA read fraction, and
        ``C_u``/``C_r`` are the observed EWMA per-event costs at the
        current ε (1.0 when that kind has not been observed yet, which
        reduces the term to the bare asymptotic ratio).
        """
        candidate = self.plan.expected_exponents(epsilon)
        current = self.plan.expected_exponents(current_epsilon)
        n = max(2.0, float(size))
        update_cost = telemetry.ewma_update_seconds
        read_cost = telemetry.ewma_read_seconds
        if update_cost is None or update_cost <= 0.0:
            update_cost = 1.0
        if read_cost is None or read_cost <= 0.0:
            read_cost = 1.0
        update_exp = candidate.get("update", 0.0) - current.get("update", 0.0)
        delay_exp = candidate["delay"] - current["delay"]
        fraction = telemetry.read_fraction()
        return (1.0 - fraction) * update_cost * n**update_exp + (
            fraction * read_cost * n**delay_exp
        )


class AdaptiveController:
    """Propose (and optionally apply) ε and shard-count moves.

    ``hysteresis`` is the minimum predicted cost ratio — current over best
    candidate — before a retune is worth its preprocessing pass;
    ``cooldown`` is the minimum number of telemetry events between
    consecutive structural moves (and before the first), so one noisy
    observation cannot thrash the engine.  When ``capacity`` names a
    :class:`ShardCapacityConfig` and the engine is sharded, the same
    controller also proposes shard-count changes from the same telemetry
    loop — one controller, two knobs — under the *shared* cooldown
    window: a retune and a reshard are both structural moves, and two in
    one window would double-pay the rebuild they each imply.  The
    capacity knob carries its own damping in place of the cost-ratio
    hysteresis: the over-commit ratio absorbs transient skew before a
    split, and the shrink margin demands clear headroom before a merge.
    """

    def __init__(
        self,
        engine,
        epsilons: Sequence[float] = DEFAULT_EPSILON_GRID,
        hysteresis: float = 1.5,
        cooldown: int = 16,
        telemetry: Optional[WorkloadTelemetry] = None,
        capacity: Optional[ShardCapacityConfig] = None,
    ) -> None:
        grid = tuple(sorted(set(float(e) for e in epsilons)))
        if not grid:
            raise ValueError("the candidate grid needs at least one epsilon")
        for epsilon in grid:
            if not 0.0 <= epsilon <= 1.0:
                raise ValueError("every candidate epsilon must lie in [0, 1]")
        if hysteresis < 1.0:
            raise ValueError("hysteresis must be >= 1.0 (a cost ratio)")
        if cooldown < 1:
            raise ValueError("cooldown must be a positive event count")
        self.engine = engine
        self.epsilons = grid
        self.hysteresis = hysteresis
        self.cooldown = cooldown
        self.telemetry = telemetry if telemetry is not None else engine.telemetry
        if self.telemetry is None:
            raise ValueError(
                "the engine was built with telemetry=False; pass a "
                "WorkloadTelemetry to the controller (and feed it) instead"
            )
        if capacity is not None and not hasattr(engine, "shard_sizes"):
            raise ValueError(
                "a capacity policy needs a sharded engine (shard_sizes); "
                f"got {type(engine).__name__}"
            )
        self.capacity = capacity
        self.model = CostModel(engine.plan)
        self.retunes_applied = 0
        self.reshards_applied = 0
        self.history: List[Tuple[int, float]] = []
        #: Every applied reshard, as ``(telemetry events, new shard count)``.
        self.reshard_history: List[Tuple[int, int]] = []
        self._events_at_last_retune = 0
        self._events_at_last_reshard = 0

    # ------------------------------------------------------------------
    def _engine_size(self) -> int:
        database = getattr(self.engine, "database", None)
        if database is not None:
            return database.size
        return sum(self.engine.shard_sizes())

    def predicted_costs(self) -> Dict[float, float]:
        """The model's per-event cost for every grid candidate (and current ε)."""
        size = self._engine_size()
        current = self.engine.epsilon
        candidates = set(self.epsilons) | {current}
        return {
            epsilon: self.model.predict(epsilon, current, size, self.telemetry)
            for epsilon in sorted(candidates)
        }

    def propose(self) -> Optional[float]:
        """The ε the engine should move to, or None to stay put.

        Returns None inside the cooldown window, when no candidate beats
        the current ε by the hysteresis factor, or when the winner *is*
        the current ε.
        """
        if self._in_cooldown():
            return None
        costs = self.predicted_costs()
        current = self.engine.epsilon
        best = min(self.epsilons, key=lambda eps: (costs[eps], abs(eps - current)))
        if best == current:
            return None
        if costs[current] < self.hysteresis * costs[best]:
            return None
        return best

    def maybe_retune(self) -> Optional[float]:
        """Apply :meth:`propose` to the engine; returns the ε applied or None."""
        epsilon = self.propose()
        if epsilon is None:
            return None
        self.engine.retune(epsilon)
        self.retunes_applied += 1
        self._events_at_last_retune = self.telemetry.events
        self.history.append((self.telemetry.events, epsilon))
        return epsilon

    # ------------------------------------------------------------------
    # the capacity knob (shard count)
    # ------------------------------------------------------------------
    def _in_cooldown(self) -> bool:
        """Inside the shared window since the last structural move?"""
        last_move = max(self._events_at_last_retune, self._events_at_last_reshard)
        return self.telemetry.events - last_move < self.cooldown

    def capacity_report(self) -> List[ShardCapacity]:
        """Per-shard total/used/available under the capacity policy."""
        if self.capacity is None:
            raise ValueError("this controller was built without a capacity policy")
        total = int(self.capacity.shard_capacity * self.capacity.over_commit_ratio)
        return [
            ShardCapacity(shard=index, total=total, used=int(used))
            for index, used in enumerate(self.engine.shard_sizes())
        ]

    def propose_shards(self) -> Optional[int]:
        """The shard count the fleet should move to, or None to stay put.

        Pure (no engine mutation).  Returns None without a capacity
        policy, inside the shared cooldown window, or when the fleet is
        inside its admitted envelope: a *split* needs some shard over
        its over-committed total, a *merge* needs the whole fleet to fit
        in one fewer shard with the shrink margin to spare.
        """
        if self.capacity is None or self._in_cooldown():
            return None
        policy = self.capacity
        sizes = [int(size) for size in self.engine.shard_sizes()]
        current = len(sizes)
        used = sum(sizes)
        admitted = policy.shard_capacity * policy.over_commit_ratio
        if any(size > admitted for size in sizes):
            # Grow to the count that fits the fleet at *nominal* capacity
            # (not the over-committed total: landing back inside the
            # slack is the point), at least one shard more than now.
            target = max(current + 1, math.ceil(used / policy.shard_capacity))
            target = min(target, policy.max_shards)
            return target if target > current else None
        comfortable = policy.shard_capacity * policy.shrink_margin
        if current > policy.min_shards and used <= comfortable * (current - 1):
            target = max(policy.min_shards, math.ceil(used / comfortable) or 1)
            target = min(target, current - 1)
            return target if target < current else None
        return None

    def record_reshard(self, new_count: int) -> None:
        """Note an applied reshard (resets the shared cooldown window).

        Split out from :meth:`maybe_reshard` so a serving layer driving
        the three-phase protocol itself can keep the controller's
        bookkeeping exact.
        """
        self.reshards_applied += 1
        self._events_at_last_reshard = self.telemetry.events
        self.reshard_history.append((self.telemetry.events, new_count))

    def maybe_reshard(self) -> Optional[int]:
        """Apply :meth:`propose_shards`; returns the count applied or None."""
        target = self.propose_shards()
        if target is None:
            return None
        self.engine.reshard(target)
        self.record_reshard(target)
        return target
