"""The JSON pair table of wire protocol 2, kept as the differential oracle.

Until protocol 3 this was ``repro.net.protocol.wire_pairs`` /
``unwire_pairs``: a set of ``(tuple, multiplicity)`` pairs as one JSON
object, ``{"c": [column, …], "m": [multiplicity, …]}``.  JSON round-trips
ints, floats, strings, ``bool`` and ``None`` exactly, so whatever the binary
table of :mod:`repro.net.protocol` decodes must equal — value and type —
what this pair of functions makes of the same pairs through ``json.dumps``
/ ``json.loads`` (``tests/test_net.py`` checks it).  The functions are the
old ones, unchanged.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.net.protocol import ProtocolError

_SCALARS = frozenset((int, float, str, bool, type(None)))
_INT = frozenset((int,))


def wire_pairs(pairs: Iterable[Tuple[Sequence[Any], int]]) -> Dict[str, List[Any]]:
    """Encode ``(tuple, multiplicity)`` pairs as a columnar JSON pair table."""
    tuples: List[Sequence[Any]] = []
    mults: List[int] = []
    for tup, mult in pairs:
        tuples.append(tup)
        mults.append(int(mult))
    arity = len(tuples[0]) if tuples else 0
    return {
        "c": [list(map(itemgetter(i), tuples)) for i in range(arity)],
        "m": mults,
    }


def unwire_pairs(raw: Any) -> List[Tuple[Tuple[Any, ...], int]]:
    """Decode the output of :func:`wire_pairs` (``ProtocolError`` if malformed)."""
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"expected a pair table on the wire, got a {type(raw).__name__}"
        )
    columns, mults = raw.get("c"), raw.get("m")
    if not isinstance(columns, list) or not isinstance(mults, list):
        raise ProtocolError(
            'a pair table needs a list of columns "c" and a list of '
            f'multiplicities "m", got keys {sorted(map(str, raw))}'
        )
    if not set(map(type, mults)) <= _INT:
        raise ProtocolError("pair table multiplicities must be integers")
    count = len(mults)
    for column in columns:
        if not isinstance(column, list) or len(column) != count:
            raise ProtocolError(
                f"every pair table column must be a list of {count} values"
            )
        if not set(map(type, column)) <= _SCALARS:
            raise ProtocolError("pair table values must be JSON scalars")
    tuples = zip(*columns) if columns else repeat((), count)
    return list(zip(tuples, mults))
