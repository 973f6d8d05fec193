"""Wire protocol for the networked serving layer: length-prefixed JSON.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON encoding a single object.
The same framing is used in both directions and by both the blocking
(:mod:`socket`) client and the :mod:`asyncio` server, so the helpers here
come in sync and async flavours sharing one encoder.

Two message shapes flow over a connection:

* **Requests and responses** carry an ``"id"`` key: the client picks a
  per-connection monotonically increasing integer, the server echoes it in
  exactly one response (``"ok": true`` plus op-specific payload, or
  ``"ok": false`` with ``"error"``/``"kind"``).
* **Pushes** carry a ``"sub"`` key instead: server-initiated subscription
  traffic (``"kind": "delta"`` or ``"kind": "resync"``) that the client
  demultiplexes to the matching subscription.

JSON has no tuples.  A single tuple (a lookup key, an update) crosses the
wire as a list; a *set of result tuples with multiplicities* — the payload
of ``read``, ``snapshot_page``, a ``subscribe`` response, a resync and every
per-commit delta push — crosses as one **columnar pair table**,
``{"c": [column, …], "m": [multiplicity, …]}``: one list per result column
plus the list of multiplicities, all of the same length.  Thousands of
tuples then cost a handful of long scalar lists to encode and parse, not
thousands of two-element lists of lists, and :func:`unwire_pairs` re-tuples
them with two ``zip`` calls.  :func:`wire_pairs` and :func:`unwire_pairs` are
the only code that knows this shape.  Values are JSON scalars (the
scenarios' are ints and strings), which JSON round-trips exactly.

``PROTOCOL_VERSION`` 2 is the columnar pair table; version 1 sent pairs as
``[[values…], multiplicity]`` rows.  There is no negotiation: ``ping``
reports the server's version and a version-1 peer's pair payloads are
rejected as malformed.
"""

from __future__ import annotations

import json
import socket
import struct
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data.update import Update
from repro.exceptions import ReproError

PROTOCOL_VERSION = 2

#: Frame header: one 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: Hard ceiling on a single frame's payload, defending both sides against
#: a corrupt or hostile header claiming a multi-gigabyte length.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ReproError):
    """A frame violated the wire protocol (bad header, overflow, bad JSON)."""


class ConnectionClosedError(ReproError):
    """The peer closed the connection mid-conversation."""


class RemoteError(ReproError):
    """The server answered a request with ``ok: false``.

    ``kind`` carries the server-side exception class name (for example
    ``"RejectedUpdateError"``) so clients can branch without parsing the
    message text.
    """

    def __init__(self, message: str, kind: str = "ReproError") -> None:
        super().__init__(message)
        self.kind = kind


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload back into a message object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_header(header: bytes) -> int:
    """Validate a 4-byte header and return the announced payload length."""
    if len(header) != HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes, above MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return length


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Blocking read of exactly ``count`` bytes (or raise on early EOF)."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosedError(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Dict[str, Any]:
    """Blocking read of one frame from a connected socket."""
    length = parse_header(recv_exactly(sock, HEADER.size))
    return decode_payload(recv_exactly(sock, length))


def write_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Blocking write of one frame to a connected socket."""
    sock.sendall(encode_frame(message))


async def read_frame_async(reader, header: Optional[bytes] = None) -> Dict[str, Any]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    ``header`` lets the caller hand over 4 bytes it already consumed (the
    server peeks the first bytes of a connection to detect HTTP).
    Returns ``None``-equivalent by raising :class:`ConnectionClosedError`
    on a clean EOF *between* frames; EOF mid-frame is also an error.
    """
    import asyncio

    try:
        if header is None:
            header = await reader.readexactly(HEADER.size)
        length = parse_header(header)
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionClosedError(
            "connection closed mid-frame"
            if exc.partial
            else "connection closed"
        ) from exc
    return decode_payload(payload)


# ----------------------------------------------------------------------
# value conversion: engine objects <-> JSON-safe structures
# ----------------------------------------------------------------------
#: What a tuple value or a multiplicity may be once JSON has parsed it.
_SCALARS = frozenset((int, float, str, bool, type(None)))
_INT = frozenset((int,))


def unwire_tuple(raw: Any) -> Tuple[Any, ...]:
    """Decode one tuple (``ProtocolError`` unless a list of JSON scalars)."""
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError(f"expected a tuple on the wire, got {raw!r}")
    if not set(map(type, raw)) <= _SCALARS:
        raise ProtocolError(f"tuple values must be JSON scalars, got {raw!r}")
    return tuple(raw)


def wire_pairs(pairs: Iterable[Tuple[Sequence[Any], int]]) -> Dict[str, List[Any]]:
    """Encode ``(tuple, multiplicity)`` pairs as a columnar pair table.

    ``{"c": [[first values…], [second values…], …], "m": [multiplicities…]}``;
    tuples of arity 0 leave ``"c"`` empty and are counted by ``"m"`` alone.
    """
    # Written to allocate a handful of lists and nothing per pair: a commit's
    # delta is thousands of pairs, and ``zip(*pairs)`` / ``zip(*tuples)`` would
    # keep every pair alive and open one iterator per tuple — thousands of
    # short-lived containers, which the collector answers with extra passes
    # over the serving process's heap, under the engine's write lock.
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


def wire_updates(updates: Iterable[Update]) -> List[List[Any]]:
    """Encode updates as ``[relation, [values...], multiplicity]`` triples."""
    return [[u.relation, list(u.tuple), int(u.multiplicity)] for u in updates]


def unwire_updates(raw: Any) -> List[Update]:
    """Decode the output of :func:`wire_updates`."""
    if not isinstance(raw, list):
        raise ProtocolError(f"expected an update list on the wire, got {raw!r}")
    updates: List[Update] = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ProtocolError(f"malformed wire update {item!r}")
        relation, tup, mult = item
        # No coercion: 2.7 is not 2 copies, True is not 1, 7 is not a name.
        if not isinstance(relation, str) or type(mult) is not int or mult == 0:
            raise ProtocolError(f"malformed wire update {item!r}")
        updates.append(Update(relation, unwire_tuple(tup), mult))
    return updates
