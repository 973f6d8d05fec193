"""The commutative-ring payload contract of aggregate views.

The engine's views have always carried one implicit payload type: the
tuple multiplicity, an element of the *counting ring* (ℤ, +, 0).  Every
layer that moves multiplicities around — delta propagation, heavy/light
routing, shard merging, subscription coalescing — only ever relies on
three properties of that payload:

* **associativity + commutativity** of addition: batched deltas may be
  consolidated in any grouping and any order;
* an **identity** element: an absent tuple is indistinguishable from a
  tuple carried at the identity;
* an **additive inverse**: a deletion is the insertion of the negated
  payload, so retractions ride the exact same code path as insertions.

:class:`Ring` makes that contract explicit so the same machinery can
maintain sums, minima/maxima, and sum-products next to plain counts.
Strictly the requirement is an *abelian group* per payload; the "ring"
name follows the provenance-semiring literature the design comes from
(K-relations), where ``lift`` is the valuation into the ring and tuple
multiplicity acts by scalar multiplication.

Concrete rings live in :mod:`repro.rings.library`; they register here so
wire protocols and shard commands can name a ring by string and
reconstruct it anywhere (:func:`get_ring`).  :func:`check_ring_laws` is
the property harness the unit tests and the fuzzer run against every
registered ring — a ring whose laws fail would silently corrupt every
maintained aggregate, so the laws are checked, not assumed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence, Tuple


class Ring:
    """One commutative payload algebra (an abelian group with a lift).

    Elements are opaque to the engine: it only ever combines them through
    the methods below.  Implementations must keep elements immutable (or
    never mutate a value handed out), because maintained aggregate states
    and copy-on-write snapshots share them freely.
    """

    #: Registry name; also the wire identifier for shard/net commands.
    name: str = "abstract"

    def zero(self) -> Any:
        """The additive identity."""
        raise NotImplementedError

    def lift(self, value: Any, multiplicity: int) -> Any:
        """Valuate one result tuple's contribution at the given multiplicity.

        ``value`` is whatever the :class:`~repro.rings.spec.AggregateSpec`
        extracted from the result tuple (``None`` for count-style specs).
        ``lift(v, -m)`` must equal ``negate(lift(v, m))`` — deletions are
        negated insertions everywhere in the engine.  A value the ring
        cannot lift raises ``TypeError``, ``ValueError`` or an
        ``ArithmeticError``; the folds keep such a contribution as a
        :class:`~repro.rings.spec.Unliftable` element instead of failing.
        """
        raise NotImplementedError

    def add(self, a: Any, b: Any) -> Any:
        """Combine two elements (associative, commutative)."""
        raise NotImplementedError

    def negate(self, a: Any) -> Any:
        """The additive inverse: ``add(a, negate(a))`` is ``zero()``."""
        raise NotImplementedError

    def is_zero(self, a: Any) -> bool:
        return a == self.zero()

    def answer(self, a: Any) -> Any:
        """The user-facing value of an element (e.g. Fraction → float)."""
        return a

    def to_wire(self, a: Any) -> Any:
        """JSON-safe encoding of an element (shard pipes, net frames)."""
        return a

    def from_wire(self, wire: Any) -> Any:
        """Inverse of :meth:`to_wire`."""
        return wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ring({self.name})"


_RINGS: Dict[str, Ring] = {}


def register_ring(ring: Ring) -> Ring:
    """Register a ring under its ``name`` (last registration wins)."""
    _RINGS[ring.name] = ring
    return ring


def get_ring(ring: Any) -> Ring:
    """Resolve a ring instance or registered name to a :class:`Ring`."""
    if isinstance(ring, Ring):
        return ring
    try:
        return _RINGS[ring]
    except KeyError:
        raise KeyError(
            f"unknown ring {ring!r}; known: {', '.join(sorted(_RINGS))}"
        ) from None


def ring_names() -> Tuple[str, ...]:
    """All registered ring names, sorted."""
    return tuple(sorted(_RINGS))


def check_ring_laws(
    ring: Ring,
    samples: Sequence[Tuple[Any, int]],
    equal: Callable[[Any, Any], bool] = lambda a, b: a == b,
) -> None:
    """Assert the abelian-group laws over lifted ``(value, mult)`` samples.

    Checks associativity, commutativity, the identity, inverses, the
    lift's multiplicity-linearity, and the wire round-trip.  Raises
    ``AssertionError`` naming the first broken law.
    """
    elements = [ring.lift(value, mult) for value, mult in samples]
    zero = ring.zero()
    assert ring.is_zero(zero), f"{ring.name}: zero() is not is_zero()"
    for a in elements:
        assert equal(ring.add(a, zero), a), f"{ring.name}: identity law failed"
        assert ring.is_zero(ring.add(a, ring.negate(a))), (
            f"{ring.name}: inverse law failed for {a!r}"
        )
        assert equal(ring.from_wire(ring.to_wire(a)), a), (
            f"{ring.name}: wire round-trip changed {a!r}"
        )
    for a in elements:
        for b in elements:
            assert equal(ring.add(a, b), ring.add(b, a)), (
                f"{ring.name}: commutativity failed for {a!r}, {b!r}"
            )
            for c in elements:
                assert equal(
                    ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))
                ), f"{ring.name}: associativity failed"
    for value, mult in samples:
        assert equal(
            ring.lift(value, -mult), ring.negate(ring.lift(value, mult))
        ), f"{ring.name}: lift({value!r}, -{mult}) is not the negated lift"

