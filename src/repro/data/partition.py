"""Heavy/light partitions of relations (Definition 11 of the paper).

Given a relation ``R`` over schema ``X``, a partition schema ``S ⊂ X`` and a
threshold ``θ``, the pair ``(H, L)`` partitions ``R`` by the degree of the
``S``-values:

* *strict* partition — ``|σ_{S=t} R| ≥ θ`` for heavy keys,
  ``|σ_{S=t} R| < θ`` for light keys;
* *loose* partition (used between rebalancing steps) — heavy keys have
  degree at least ``θ/2`` inside the heavy part and light keys degree below
  ``3θ/2`` inside the light part.

Only the light part ``R^S`` is materialized as its own relation (that is what
the skew-aware view trees join over); the heavy part is ``R`` minus the keys
present in the light part.  The :class:`Partition` class tracks both and
offers the consistency checks exercised by the property-based tests.

This module also hosts the *horizontal* partitioning primitives
(:func:`stable_hash`, :func:`shard_of`) used by
:mod:`repro.sharding` to hash base tuples onto shards by their shard-key
value — kept here so every notion of "splitting a relation" lives in one
place and the hash stays importable from worker processes without pulling
in the engine.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Iterator, Tuple

from repro.data.relation import Relation
from repro.data.schema import Schema, ValueTuple, ordered
from repro.exceptions import InvariantViolationError


def canonical_key_value(value: object) -> object:
    """Collapse values that are equal under Python semantics onto one form.

    Tuple equality in relations follows ``==``, where ``1 == 1.0 == True``;
    shard routing and canonical ordering must agree with that, or a delete
    written as ``(10, 1.0)`` would route to a different shard than the
    stored ``(10, 1)``.  Booleans become ints and integral floats become
    ints; everything else is returned unchanged.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def stable_hash(value: object) -> int:
    """A process-independent hash of one shard-key value.

    Shard routing must agree across runs and across worker processes, so it
    cannot use Python's built-in ``hash`` (string hashing is salted per
    process via ``PYTHONHASHSEED``).  CRC32 over the ``repr`` of the
    canonicalized value (see :func:`canonical_key_value`) is stable, cheap,
    and spreads the small integer domains of the workloads well once mixed
    through a multiplier below.
    """
    return zlib.crc32(repr(canonical_key_value(value)).encode("utf-8"))


def shard_of(value: object, shard_count: int) -> int:
    """Map one shard-key value to a shard index in ``[0, shard_count)``.

    Deterministic across processes and runs (see :func:`stable_hash`); used
    by the sharded engine to route base tuples and updates, and by
    cross-shard invariant checks to verify that every stored tuple lives on
    the shard its key hashes to.
    """
    if shard_count <= 0:
        raise ValueError(f"shard count must be positive, got {shard_count}")
    if shard_count == 1:
        return 0
    # Fibonacci-style multiplicative mixing: CRC32 of small consecutive
    # integers is itself poorly distributed in the low bits.
    mixed = (stable_hash(value) * 0x9E3779B1) & 0xFFFFFFFF
    return mixed % shard_count


def light_part_name(relation_name: str, keys: Iterable[str]) -> str:
    """Canonical name of the light part of ``relation_name`` on ``keys``.

    The paper writes ``R^S``; we use ``R^{A,B}`` so the name is printable and
    unique per partition schema.
    """
    return f"{relation_name}^{{{','.join(ordered(keys))}}}"


class Partition:
    """The heavy/light partition of one base relation on one key schema."""

    def __init__(self, base: Relation, keys: Iterable[str]) -> None:
        self.base = base
        self.keys: Schema = tuple(var for var in base.schema if var in set(keys))
        if not self.keys:
            raise ValueError("a partition needs a non-empty key schema")
        self.light = Relation(light_part_name(base.name, self.keys), base.schema)
        # indexes used for degree queries
        self.base.ensure_index(self.keys)
        self.light.ensure_index(self.keys)

    # ------------------------------------------------------------------
    # degree queries
    # ------------------------------------------------------------------
    def key_of(self, tup: ValueTuple) -> ValueTuple:
        """Project a full tuple of the base relation onto the partition keys."""
        return self.base.ensure_index(self.keys).key_of(tup)

    def base_degree(self, key: ValueTuple) -> int:
        """Number of distinct base tuples with this key (``|σ_{S=key} R|``)."""
        return self.base.slice_size(self.keys, key)

    def light_degree(self, key: ValueTuple) -> int:
        """Number of distinct light-part tuples with this key."""
        return self.light.slice_size(self.keys, key)

    def is_light_key(self, key: ValueTuple) -> bool:
        """True when ``key`` currently resides in the light part."""
        return self.light.contains_key(self.keys, key)

    def is_heavy_key(self, key: ValueTuple) -> bool:
        """True when ``key`` appears in the base relation but not in the light part."""
        return self.base.contains_key(self.keys, key) and not self.is_light_key(key)

    def heavy_keys(self) -> Iterator[ValueTuple]:
        """Enumerate the keys currently classified as heavy."""
        for key in self.base.distinct_keys(self.keys):
            if not self.is_light_key(key):
                yield key

    def light_keys(self) -> Iterator[ValueTuple]:
        """Enumerate the keys currently classified as light."""
        return iter(self.light.distinct_keys(self.keys))

    # ------------------------------------------------------------------
    # (re)partitioning
    # ------------------------------------------------------------------
    def strict_repartition(self, threshold: float) -> None:
        """Rebuild the light part as the strict partition with ``threshold``.

        Used during preprocessing and major rebalancing (Figure 20): a key is
        light exactly when its degree in the base relation is strictly below
        the threshold, and then all of its tuples (with multiplicities) are
        copied into the light part.
        """
        self.light.clear()
        index = self.base.ensure_index(self.keys)
        multiplicity = self.base.multiplicity
        self.light.apply_deltas(
            (tup, multiplicity(tup))
            for key in index.keys()
            if index.group_size(key) < threshold
            for tup in index.group(key)
        )

    def move_key_to_light(self, key: ValueTuple) -> Dict[ValueTuple, int]:
        """Copy all base tuples of ``key`` into the light part.

        Returns the applied deltas ``{tuple: +multiplicity}`` so the caller
        (minor rebalancing) can propagate the same deltas to the view trees.
        """
        multiplicity = self.base.multiplicity
        deltas = {tup: multiplicity(tup) for tup in self.base.slice(self.keys, key)}
        self.light.apply_deltas(deltas.items())
        return deltas

    def move_key_to_heavy(self, key: ValueTuple) -> Dict[ValueTuple, int]:
        """Remove all light-part tuples of ``key``.

        Returns the applied deltas ``{tuple: -multiplicity}``.
        """
        multiplicity = self.light.multiplicity
        deltas = {tup: -multiplicity(tup) for tup in self.light.slice(self.keys, key)}
        self.light.apply_deltas(deltas.items())
        return deltas

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_strict(self, threshold: float) -> None:
        """Assert the strict partition conditions of Definition 11."""
        self._check_degrees(threshold, threshold)

    def check_loose(self, threshold: float) -> None:
        """Assert the loose conditions of Definition 11 (3θ/2 and θ/2)."""
        self._check_degrees(1.5 * threshold, 0.5 * threshold)

    def _check_degrees(self, light_below: float, heavy_from: float) -> None:
        for key in self.light_keys():
            if self.light_degree(key) >= light_below:
                raise InvariantViolationError(
                    f"light key {key!r} of {self.base.name} has degree "
                    f"{self.light_degree(key)} ≥ {light_below}"
                )
        for key in self.heavy_keys():
            if self.base_degree(key) < heavy_from:
                raise InvariantViolationError(
                    f"heavy key {key!r} of {self.base.name} has degree "
                    f"{self.base_degree(key)} < {heavy_from}"
                )
        self.check_consistency()

    def check_consistency(self) -> None:
        """Assert that the light part is a sub-bag of the base relation.

        The union condition of Definition 11 (``R = H + L``) is kept
        implicitly: heavy tuples are exactly those base tuples whose key is
        not in the light part, so it suffices to verify that every light
        tuple matches its base multiplicity.
        """
        for tup, mult in self.light.items():
            base_mult = self.base.multiplicity(tup)
            if base_mult != mult:
                raise InvariantViolationError(
                    f"light part of {self.base.name} stores {tup!r} with "
                    f"multiplicity {mult}, base has {base_mult}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partition({self.base.name!r}, keys={self.keys!r}, "
            f"light={len(self.light)})"
        )


class PartitionRegistry:
    """Shared registry of partitions keyed by (relation name, key schema).

    Several view trees may reference the same light part ``R^S``; routing all
    of them through one registry guarantees they observe a single shared
    object and that each base tuple is partitioned exactly once.
    """

    def __init__(self) -> None:
        self._partitions: Dict[Tuple[str, Schema], Partition] = {}

    def get_or_create(self, base: Relation, keys: Iterable[str]) -> Partition:
        """Return the partition of ``base`` on ``keys``, creating it if needed."""
        key_schema = tuple(var for var in base.schema if var in set(keys))
        registry_key = (base.name, key_schema)
        partition = self._partitions.get(registry_key)
        if partition is None:
            partition = Partition(base, key_schema)
            self._partitions[registry_key] = partition
        return partition

    def partitions(self) -> Tuple[Partition, ...]:
        """All registered partitions, in creation order."""
        return tuple(self._partitions.values())

    def partitions_of(self, relation_name: str) -> Tuple[Partition, ...]:
        """All partitions of one base relation."""
        return tuple(
            partition
            for (name, _keys), partition in self._partitions.items()
            if name == relation_name
        )

    def __len__(self) -> int:
        return len(self._partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._partitions.values())
