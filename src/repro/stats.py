"""Counter families: each set of statistics is declared once, as dataclass fields.

A family is a dataclass whose public fields are its counters.  A field
declared with :func:`metric` is also exported on ``/metrics``: its
metadata carries the Prometheus type and help, and the exported name is
``<PREFIX>_<field>`` unless the declaration names it.  Everything else a
family needs is written here once, over :func:`dataclasses.fields`:

* :meth:`Family.as_dict` / :meth:`Family.from_dict` — the flat dict that
  checkpoints persist, shard pipes carry, and the ``stats`` op replies with;
* :meth:`Family.add` / :meth:`Family.merged` — fold per-shard counters;
* :meth:`Family.samples` — the ``(name, type, help, value)`` rows the
  renderer in :mod:`repro.net.metrics` turns into exposition text, in
  declaration order;
* :meth:`LockedFamily.count` — one locked increment, for the families that
  several threads update.

A new family is one more dataclass; the renderer needs no edit.  This
module imports nothing from the rest of the package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, Iterable, Iterator, Optional, Tuple, TypeVar

F = TypeVar("F", bound="Family")

#: One exported sample: ``(name, type, help, value)``.
Sample = Tuple[str, str, str, float]


def metric(
    help_text: str,
    kind: str = "counter",
    *,
    name: Optional[str] = None,
    read: Optional[Callable[[Any], Any]] = None,
    default: Any = 0,
) -> Any:
    """Declare an exported field.

    ``name`` is the full exported name when it is not ``<PREFIX>_<field>``;
    ``read`` computes the exported value from the family when it is not the
    field's own (a gauge derived from a stored mark).  A ``None`` value — an
    EWMA not seeded yet — exports as 0.
    """
    metadata = {"help": help_text, "kind": kind, "name": name, "read": read}
    return field(default=default, metadata=metadata)


class Family:
    """Base of a counter family; subclasses are dataclasses."""

    #: Exported names are ``<PREFIX>_<field>`` unless a field names itself.
    PREFIX: ClassVar[str] = ""

    def as_dict(self) -> Dict[str, Any]:
        """Every public field by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name[0] != "_"}

    @classmethod
    def from_dict(cls: type[F], raw: Dict[str, Any]) -> F:
        """Rebuild a family from :meth:`as_dict` (crosses process pipes)."""
        return cls(**raw)

    def add(self: F, other: F) -> F:
        """Accumulate ``other``'s counters into this one (in place); returns
        ``self`` for chaining."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self

    @classmethod
    def merged(cls: type[F], families: Iterable[F]) -> F:
        """Fold any number of families (one per shard) into one total."""
        total = cls()
        for family in families:
            total.add(family)
        return total

    def samples(self) -> Iterator[Sample]:
        """The exported fields as ``(name, type, help, value)``."""
        for f in fields(self):
            meta = f.metadata
            if "help" not in meta:
                continue
            read = meta["read"]
            value = read(self) if read is not None else getattr(self, f.name)
            name = meta["name"] or f"{self.PREFIX}_{f.name}"
            yield name, meta["kind"], meta["help"], 0.0 if value is None else float(value)


@dataclass(eq=False)
class LockedFamily(Family):
    """A family that several threads update: increments take its lock."""

    _lock: threading.Lock = field(
        init=False, default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` under the lock."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return super().as_dict()
