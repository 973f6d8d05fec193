"""Wire protocol for the networked serving layer: length-prefixed frames.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by that many payload bytes encoding a single message
object.  The same framing is used in both directions.  Client and server
are :mod:`asyncio` code; tests and benchmarks play a raw peer with the
blocking (:mod:`socket`) helpers.  Both flavours share one encoder.

Two message shapes flow over a connection:

* **Requests and responses** carry an ``"id"`` key: the client picks a
  per-connection monotonically increasing integer, the server echoes it in
  exactly one response (``"ok": true`` plus op-specific payload, or
  ``"ok": false`` with ``"error"``/``"kind"``).
* **Pushes** carry a ``"sub"`` key instead: server-initiated subscription
  traffic (``"kind": "delta"`` or ``"kind": "resync"``) that the client
  demultiplexes to the matching subscription.

A payload takes one of two forms, told apart by its first byte:

* ``{`` — the message as UTF-8 JSON.  Requests, acks, errors, aggregate
  rows and everything else that holds no pair table travel this way.
* ``0x01`` — a message holding one **pair table**, the *set of result
  tuples with multiplicities* that is the payload of ``read``,
  ``snapshot_page``, a ``subscribe`` response, a resync and every
  per-commit delta push::

      0x01 | header length (>I) | JSON header | column blocks

  The header is the object ``{"m": message without the table, "k": the key
  the table sits under, "n": pair count, "b": [descriptor, …]}`` with one
  descriptor per result column and a last one for the multiplicities; the
  blocks follow in descriptor order, back to back, nothing after them.

A descriptor is ``[tag, byte length]`` (``["s", byte length, dictionary
byte length]`` for strings) and the tag says what the block is:

* ``b`` / ``h`` / ``i`` / ``q`` — an all-``int`` column as a little-endian
  :mod:`array` block of 1 / 2 / 4 / 8-byte signed items, the narrowest
  that holds the column's minimum and maximum;
* ``d`` — an all-``float`` column as little-endian IEEE doubles;
* ``s`` — an all-``str`` column as a per-frame dictionary (a JSON list of
  the distinct strings) followed by one ``I`` (4-byte unsigned) index per
  value;
* ``j`` — anything else as a JSON list: a column that mixes types, holds
  ``None`` or a ``bool`` (``array('q', [True])`` would silently store
  ``1``), or an integer beyond int64.  JSON round-trips each of those
  exactly, which a typed block cannot.

Types are checked exactly (``type(v) is int``), so what comes back is what
went in, value and type.  Multiplicities are always an integer block.
:func:`encode_column` / :func:`decode_column` are the column codec on its
own; :func:`wire_pairs`, :func:`iter_pairs` and :func:`unwire_pairs` are
the only code that knows a table is made of them.  A table is built once
and its blocks are shared by every frame it goes into: framing it for one
more receiver formats the small header, nothing else.

JSON has no tuples.  A single tuple (a lookup key, an update) crosses the
wire as a list inside the JSON form; values are JSON scalars.

``PROTOCOL_VERSION`` 3 is the binary pair table; version 2 sent the table
as one JSON object of column lists and a multiplicity list (it lives on as
``tests/reference_pair_table.py``, the oracle), version 1 as
``[[values…], multiplicity]`` rows.  There is no negotiation: ``ping``
reports the server's version, and an older peer's pair payloads are
rejected as malformed (:class:`ProtocolError`).
"""

from __future__ import annotations

import json
import socket
import struct
import sys
from array import array
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.data.update import Update
from repro.exceptions import ReproError

PROTOCOL_VERSION = 3

#: Frame header: one 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: What follows it in a frame that holds a pair table: the marker byte and
#: the byte length of the JSON header.  (A JSON payload starts with ``{``.)
_TABLE_PREFIX = struct.Struct(">cI")
_TABLE_MARKER = b"\x01"

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
def _framed(*parts) -> bytes:
    length = sum(map(len, parts))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return b"".join((HEADER.pack(length), *parts))


#: One encoder for every frame: ``json.dumps(…, separators=…)`` builds a new
#: one per call, which on a 20-row push costs as much as the rows do.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dumps(value: Any) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def _loads(raw, what: str) -> Any:
    try:
        return json.loads(str(raw, "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, a bomb
        raise ProtocolError(f"undecodable {what}: {exc}") from exc


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame.

    A :class:`PairTable` among the message's values is lifted out: the
    frame takes the binary form, whose header is formatted here and whose
    blocks are the table's own bytes, shared by every frame of that table.
    """
    key = None
    for name, value in message.items():
        if type(value) is PairTable:
            if key is not None:
                raise ProtocolError(
                    f"one pair table per message, found {key!r} and {name!r}"
                )
            key = name
    if key is None:
        return _framed(_dumps(message))
    table = message[key]
    rest = {name: value for name, value in message.items() if name != key}
    header = _dumps(
        {"m": rest, "k": key, "n": table.count, "b": table.descriptors}
    )
    return _framed(
        _TABLE_PREFIX.pack(_TABLE_MARKER, len(header)), header, table.body
    )


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload back into a message object.

    A pair table comes back validated — every length, tag and index checked
    against the bytes actually received — and ready to iterate.
    """
    if payload[:1] == _TABLE_MARKER:
        return _decode_table_payload(payload)
    message = _loads(payload, "frame payload")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _decode_table_payload(payload: bytes) -> Dict[str, Any]:
    if len(payload) < _TABLE_PREFIX.size:
        raise ProtocolError("pair table frame shorter than its prefix")
    _, header_length = _TABLE_PREFIX.unpack_from(payload)
    start = _TABLE_PREFIX.size + header_length
    if start > len(payload):
        raise ProtocolError(
            f"pair table header of {header_length} bytes overruns the payload"
        )
    view = memoryview(payload)
    header = _loads(view[_TABLE_PREFIX.size : start], "pair table header")
    if type(header) is not dict:
        raise ProtocolError("pair table header must be a JSON object")
    message, key, count, descriptors = map(header.get, ("m", "k", "n", "b"))
    if type(message) is not dict or type(key) is not str or key in message:
        raise ProtocolError("pair table header names no free slot in a message")
    if type(count) is not int or count < 0:
        raise ProtocolError(f"pair count must be a non-negative integer, got {count!r}")
    if type(descriptors) is not list:
        raise ProtocolError("pair table block descriptors must be a list")
    table = PairTable(count, descriptors, view[start:])
    table.columns()  # validated here, not when somebody iterates
    message[key] = table
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


def unwire_tuple(raw: Any) -> Tuple[Any, ...]:
    """Decode one tuple (``ProtocolError`` unless a list of JSON scalars)."""
    if not isinstance(raw, (list, tuple)):
        raise ProtocolError(f"expected a tuple on the wire, got {raw!r}")
    if not set(map(type, raw)) <= _SCALARS:
        raise ProtocolError(f"tuple values must be JSON scalars, got {raw!r}")
    return tuple(raw)


# ----------------------------------------------------------------------
# the column codec and the pair table made of it
# ----------------------------------------------------------------------
#: Item size on the wire of every fixed-width block tag.
_ITEM_SIZES = {"b": 1, "h": 2, "i": 4, "q": 8, "d": 8, "I": 4}
if any(array(tag).itemsize != size for tag, size in _ITEM_SIZES.items()):
    raise ImportError("this platform's array item sizes are not the wire's")
_INT_TAGS = ("b", "h", "i", "q")  # narrowest first
_SWAP = sys.byteorder == "big"  # blocks are little-endian on the wire


def _block(tag: str, values) -> bytes:
    items = array(tag, values)
    if _SWAP:
        items.byteswap()
    return items.tobytes()


def _items(tag: str, block, count: int) -> array:
    if len(block) != _ITEM_SIZES[tag] * count:
        raise ProtocolError(
            f"a {tag!r} block of {count} items is {_ITEM_SIZES[tag] * count} "
            f"bytes, got {len(block)}"
        )
    items = array(tag)
    items.frombytes(block)
    if _SWAP:
        items.byteswap()
    return items


def encode_column(values: List[Any]) -> Tuple[List[Any], bytes]:
    """One column of scalars as ``(descriptor, block)`` — see the module docstring."""
    kinds = list(map(type, values))
    kind = kinds[0] if kinds else int
    if kinds.count(kind) != len(kinds):
        kind = None  # a column of mixed types
    if kind is int:
        # Narrowest first: a width that cannot hold some value says so at
        # that value, which costs less than finding the minimum and the
        # maximum to choose by.
        for tag in _INT_TAGS:
            try:
                block = _block(tag, values)
            except OverflowError:
                continue
            return [tag, len(block)], block
    elif kind is float:
        block = _block("d", values)
        return ["d", len(block)], block
    elif kind is str:
        names = list(dict.fromkeys(values))
        index = dict(zip(names, range(len(names))))
        dictionary = _dumps(names)
        block = dictionary + _block("I", map(index.__getitem__, values))
        return ["s", len(block), len(dictionary)], block
    block = _dumps(values)  # mixed, None, bool, or an integer beyond int64
    return ["j", len(block)], block


def decode_column(descriptor: List[Any], block, count: int) -> Sequence[Any]:
    """The ``count`` values of one block (``ProtocolError`` if malformed).

    ``block`` is exactly the bytes the descriptor announced; ints and floats
    come back as an :class:`array`, strings and JSON columns as a list.
    """
    tag = descriptor[0]
    if tag in _INT_TAGS or tag == "d":
        return _items(tag, block, count)
    if tag == "s":
        split = descriptor[2] if len(descriptor) == 3 else None
        if type(split) is not int or not 0 <= split <= len(block):
            raise ProtocolError(f"malformed string block descriptor {descriptor!r}")
        names = _loads(block[:split], "string dictionary")
        if type(names) is not list or set(map(type, names)) - {str}:
            raise ProtocolError("a string dictionary must be a list of strings")
        indices = _items("I", block[split:], count)
        if count and max(indices) >= len(names):
            raise ProtocolError("string index beyond its dictionary")
        return list(map(names.__getitem__, indices))
    if tag == "j":
        values = _loads(block, "JSON block")
        if type(values) is not list or len(values) != count:
            raise ProtocolError(f"a JSON block must be a list of {count} values")
        if not set(map(type, values)) <= _SCALARS:
            raise ProtocolError("pair table values must be JSON scalars")
        return values
    raise ProtocolError(f"unknown block tag {tag!r}")


class PairTable:
    """A set of ``(tuple, multiplicity)`` pairs in wire form — opaque.

    ``descriptors`` and ``body`` (the blocks, back to back) are what
    :func:`encode_frame` puts on the wire; iterating yields the pairs, anew
    each time, straight from the decoded columns.
    """

    __slots__ = ("count", "descriptors", "body", "_columns")

    def __init__(self, count: int, descriptors: List[List[Any]], body) -> None:
        self.count = count
        self.descriptors = descriptors
        self.body = body
        self._columns: Optional[List[Sequence[Any]]] = None

    def columns(self) -> List[Sequence[Any]]:
        """The decoded result columns, then the multiplicities (cached).

        ``ProtocolError`` unless descriptors and body agree to the byte.
        """
        if self._columns is not None:
            return self._columns
        body, count = memoryview(self.body), self.count
        columns, offset = [], 0
        for descriptor in self.descriptors:
            if (
                type(descriptor) is not list
                or len(descriptor) < 2
                or type(descriptor[1]) is not int
                or descriptor[1] < 0
            ):
                raise ProtocolError(f"malformed block descriptor {descriptor!r}")
            end = offset + descriptor[1]
            if end > len(body):
                raise ProtocolError("block lengths overrun the payload")
            columns.append(decode_column(descriptor, body[offset:end], count))
            offset = end
        if offset != len(body):
            raise ProtocolError(f"{len(body) - offset} bytes after the last block")
        if not columns or self.descriptors[-1][0] not in _INT_TAGS:
            raise ProtocolError("pair table multiplicities must be an integer block")
        self._columns = columns
        return columns

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple[Tuple[Any, ...], int]]:
        *values, mults = self.columns()
        return zip(zip(*values) if values else repeat((), self.count), mults)


def wire_pairs(pairs: Union[Dict[Any, int], Iterable[Tuple[Sequence[Any], int]]]) -> PairTable:
    """Encode ``(tuple, multiplicity)`` pairs — or a ``{tuple: multiplicity}``
    dict, a commit's delta, to the same bytes — as a :class:`PairTable`.

    One block per result column plus one for the multiplicities; tuples of
    arity 0 have no column and are counted by the multiplicities alone.
    """
    # Written to allocate a handful of lists and nothing per pair: a commit's
    # delta is thousands of pairs, and ``zip(*pairs)`` / ``zip(*tuples)`` would
    # keep every pair alive and open one iterator per tuple — thousands of
    # short-lived containers, which the collector answers with extra passes
    # over the serving process's heap.  A dict's two lists are copied in C.
    if type(pairs) is dict:
        tuples, mults = list(pairs), list(pairs.values())
    else:
        tuples, mults = [], []
        for tup, mult in pairs:
            tuples.append(tup)
            mults.append(mult)
    arity = len(tuples[0]) if tuples else 0
    encoded = [encode_column(list(map(itemgetter(i), tuples))) for i in range(arity)]
    encoded.append(encode_column(mults))
    descriptors, blocks = zip(*encoded)
    if descriptors[-1][0] not in _INT_TAGS:  # as for updates: no coercion
        raise ProtocolError("multiplicities must be integers that fit 64 bits")
    return PairTable(len(mults), list(descriptors), b"".join(blocks))


def iter_pairs(raw: Any) -> PairTable:
    """The pairs of a table off the wire: lazy, and iterable more than once.

    ``ProtocolError`` unless ``raw`` is a table :func:`decode_payload`
    validated (or :func:`wire_pairs` built) — a protocol-2 peer's JSON
    object is not.
    """
    if type(raw) is not PairTable:
        raise ProtocolError(
            f"expected a pair table on the wire, got a {type(raw).__name__}"
        )
    return raw


def unwire_pairs(raw: Any) -> List[Tuple[Tuple[Any, ...], int]]:
    """Decode the output of :func:`wire_pairs` (``ProtocolError`` if malformed)."""
    return list(iter_pairs(raw))


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
