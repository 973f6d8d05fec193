"""The networked serving layer: protocol, server, client, subscriptions.

The end-to-end contract under test: everything a client observes over the
wire — paged snapshots, point lookups, reads, and above all subscription
pushes — must match a recompute oracle at the version stamps the server
reports.  The subscription conformance test drives mixed batches through
the wire with a mid-stream auto-retune and checks the mirrored state at
*every* version; the backpressure test wedges a non-reading subscriber
and asserts the coalesce-to-resync path re-converges it.
"""

from __future__ import annotations

import contextlib
import json
import random
import socket
import struct
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, HierarchicalEngine, Update
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.api import StaticEngine
from repro.core.serving import EngineServer
from repro.net import (
    AsyncEngineClient,
    EngineClient,
    RemoteError,
    ServerConfig,
    ServerThread,
)
from repro.net.client import AsyncSubscription
from repro.rings.spec import AggregateSpec
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PairTable,
    ProtocolError,
    decode_column,
    decode_payload,
    encode_column,
    encode_frame,
    iter_pairs,
    parse_header,
    read_frame,
    unwire_pairs,
    unwire_tuple,
    unwire_updates,
    wire_pairs,
    wire_updates,
    write_frame,
)
from tests import reference_pair_table as reference
from tests.conftest import wait_until

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
DOMAIN = 8


def make_database(seed: int = 13, rows: int = 60, hot: int = 0) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for c in range(hot):
        database.relation("S").apply_delta((0, c), 1)
    for _ in range(rows):
        database.relation("R").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
        database.relation("S").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
    return database


def mixed_batch(rng: random.Random, inserted) -> list:
    batch = []
    for _ in range(6):
        if inserted and rng.random() < 0.4:
            relation, tup = inserted.pop(rng.randrange(len(inserted)))
            batch.append(Update(relation, tup, -1))
        else:
            relation = rng.choice(("R", "S"))
            tup = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
            inserted.append((relation, tup))
            batch.append(Update(relation, tup, 1))
    return batch


@contextlib.contextmanager
def serve(engine=None, config=None, controller=None):
    owns_engine = engine is None
    if engine is None:
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(make_database())
    serving = EngineServer(engine, controller=controller)
    handle = ServerThread(serving, config or ServerConfig()).start()
    try:
        yield serving, handle
    finally:
        handle.close()
        if owns_engine:
            engine.close()


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    message = {"op": "ping", "id": 7, "values": [[1, 2], 3], "text": "héllo"}
    frame = encode_frame(message)
    assert parse_header(frame[:4]) == len(frame) - 4
    assert decode_payload(frame[4:]) == message


def test_frame_header_guards():
    with pytest.raises(ProtocolError):
        parse_header(b"\x00\x00")  # truncated
    oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolError):
        parse_header(oversized)
    with pytest.raises(ProtocolError):
        decode_payload(b"not json")
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2, 3]")  # not an object


#: The width boundaries of the b / h / i / q blocks, and beyond int64.
INT_EDGES = [
    edge + step
    for bits in (7, 15, 31, 63)
    for edge in (-(2**bits), 2**bits)
    for step in (-1, 0, 1)
] + [0, 2**70, -(2**70)]
INTS = st.one_of(st.sampled_from(INT_EDGES), st.integers(-(2**40), 2**40))
FLOATS = st.one_of(st.just(-0.0), st.floats(allow_nan=False))
TEXTS = st.one_of(st.sampled_from(["", "a", "a", "é", "日本", "😀"]), st.text(max_size=4))
WIRE_VALUES = st.one_of(INTS, FLOATS, TEXTS, st.none(), st.booleans())
#: One strategy per column, so that typed blocks (all-int of each width,
#: all-float, all-str) come up as often as the JSON fallbacks (all-None,
#: all-bool, mixed) do.
COLUMN_KINDS = [
    st.integers(-100, 100),
    st.integers(-30_000, 30_000),
    INTS,
    FLOATS,
    TEXTS,
    st.none(),
    st.booleans(),
    WIRE_VALUES,
]


@st.composite
def pair_lists(draw):
    arity = draw(st.integers(0, 3))
    rows = draw(st.integers(0, 8))
    columns = [
        draw(st.lists(draw(st.sampled_from(COLUMN_KINDS)), min_size=rows, max_size=rows))
        for _ in range(arity)
    ]
    tuples = list(dict.fromkeys(zip(*columns))) if arity else [()] * min(rows, 1)
    return [(tup, draw(st.integers(-5, 5))) for tup in tuples]


def framed(table, key="delta"):
    """``table`` through one frame and back."""
    frame = encode_frame({"sub": 1, "kind": "delta", "version": 3, key: table})
    return decode_payload(frame[4:])[key]


@given(pairs=pair_lists())
@settings(max_examples=200, deadline=None)
def test_pair_table_roundtrips_through_a_frame(pairs):
    """Empty, arity 0, every block kind, negative multiplicities — and the
    JSON table of protocol 2 as the oracle: equal values, equal *types*
    (``repr`` tells ``True`` from ``1``, ``1.0`` from ``1``, ``-0.0`` from
    ``0.0``)."""
    table = wire_pairs(pairs)
    assert type(table) is PairTable and len(table) == len(pairs)
    assert unwire_pairs(table) == pairs  # in memory, no frame in between
    assert unwire_pairs(framed(table)) == pairs
    assert unwire_pairs(wire_pairs(dict(pairs).items())) == pairs
    oracle = reference.unwire_pairs(json.loads(json.dumps(reference.wire_pairs(pairs))))
    assert oracle == reference.unwire_pairs(reference.wire_pairs(pairs)) == pairs
    assert repr(unwire_pairs(table)) == repr(unwire_pairs(framed(table))) == repr(oracle)
    # a table off the wire can be read twice and framed again
    received = framed(table)
    assert list(iter_pairs(received)) == list(iter_pairs(received)) == pairs
    assert repr(unwire_pairs(framed(received, key="result"))) == repr(oracle)


@pytest.mark.parametrize(
    "column, tag",
    [
        ([-128, 127], "b"), ([-129], "h"), ([128], "h"),
        ([-(2**15), 2**15 - 1], "h"), ([2**15], "i"), ([-(2**15) - 1], "i"),
        ([-(2**31), 2**31 - 1], "i"), ([2**31], "q"), ([-(2**31) - 1], "q"),
        ([-(2**63), 2**63 - 1], "q"), ([2**63], "j"), ([-(2**63) - 1], "j"),
        ([0, 0, 300], "h"), ([0, 0, 2**40], "q"), ([0, 0, 2**70], "j"),  # found late
        ([1.5, -0.0], "d"), (["a", "é", "a"], "s"),
        ([True, False], "j"), ([1, True], "j"), ([True, 1], "j"), ([None, None], "j"),
        ([1, 2.0], "j"), ([1, "1"], "j"),
    ],
)  # fmt: skip
def test_column_blocks_are_the_narrowest_that_round_trip(column, tag):
    descriptor, block = encode_column(column)
    assert descriptor[:2] == [tag, len(block)]
    decoded = list(decode_column(descriptor, block, len(column)))
    assert repr(decoded) == repr(column)
    if tag in "bhiqd":
        assert len(block) == {"b": 1, "h": 2, "i": 4, "q": 8, "d": 8}[tag] * len(column)
    if tag == "s":  # one dictionary entry per distinct string
        assert json.loads(block[: descriptor[2]]) == list(dict.fromkeys(column))


def test_frames_without_a_table_are_the_json_frames_of_protocol_2():
    message = {"op": "apply_batch", "id": 7, "updates": [["R", [1, "é"], -1]]}
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    assert encode_frame(message) == struct.pack(">I", len(payload)) + payload
    table = wire_pairs([((1, 2), 1)])
    assert encode_frame({"id": 1, "pairs": table})[4:5] == b"\x01"
    with pytest.raises(ProtocolError):
        encode_frame({"delta": table, "result": table})  # one table per message
    with pytest.raises(ProtocolError):
        wire_pairs([((1,), 2**63)])  # multiplicities are an integer block


HOSTILE_PAIR_TABLES = [
    pytest.param({"c": [[1, 2], [3]], "m": [1, 1]}, id="ragged-columns"),
    pytest.param({"c": [[1, 2]], "m": [1]}, id="column-longer-than-m"),
    pytest.param({"c": ["ab"], "m": [1, 1]}, id="string-column"),
    pytest.param({"c": [7], "m": [1]}, id="scalar-column"),
    pytest.param({"c": {"0": [1]}, "m": [1]}, id="columns-not-a-list"),
    pytest.param({"c": [[1]]}, id="m-missing"),
    pytest.param({"m": [1]}, id="c-missing"),
    pytest.param({"c": [[1]], "m": 1}, id="m-not-a-list"),
    pytest.param({"c": [[1]], "m": ["3"]}, id="m-string"),
    pytest.param({"c": [[1]], "m": [2.5]}, id="m-float"),
    pytest.param({"c": [[1]], "m": [True]}, id="m-bool"),
    pytest.param({"c": [[[1, 2]]], "m": [1]}, id="nested-value"),
    pytest.param({"c": [[{"a": 1}]], "m": [1]}, id="object-value"),
    pytest.param([[[1, "x"], 2], [[3, 4], -1]], id="protocol-1-rows"),
    pytest.param([], id="protocol-1-empty"),
    pytest.param(None, id="null"),
    pytest.param("pairs", id="string"),
]


@pytest.mark.parametrize("table", HOSTILE_PAIR_TABLES)
def test_hostile_pair_table_is_a_protocol_error(table):
    parsed = decode_payload(encode_frame({"delta": table})[4:])["delta"]
    with pytest.raises(ProtocolError):
        unwire_pairs(parsed)
    # the mirrors raise the same error and keep their state
    state = AsyncSubscription(1, 4, wire_pairs([((1,), 1)]))
    with pytest.raises(ProtocolError):
        state.apply({"kind": "delta", "version": 5, "delta": parsed})
    with pytest.raises(ProtocolError):
        state.apply({"kind": "resync", "version": 5, "result": parsed})
    assert state.version == 4 and state.result == {(1,): 1}


def table_payload(header, *blocks, header_length=None) -> bytes:
    """A pair-table frame payload put together by hand (any header, any blocks)."""
    encoded = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = len(encoded) if header_length is None else header_length
    return b"\x01" + struct.pack(">I", length) + encoded + b"".join(blocks)


def table_header(count, *descriptors, message=None, key="delta"):
    return {"m": {"sub": 1} if message is None else message, "k": key, "n": count, "b": list(descriptors)}


H2 = struct.pack("<2h", 7, 8)  # one "h" block of two items
B2 = b"\x01\x01"  # one "b" block of two items: the multiplicities
NAMES = json.dumps(["x", "y"]).encode()
I2 = struct.pack("<2I", 0, 1)

#: The binary twins of ``HOSTILE_PAIR_TABLES``: frame payloads, not objects.
HOSTILE_TABLE_PAYLOADS = [
    pytest.param(table_payload(table_header(2, ["h", 2], ["b", 2]), H2[:2], B2), id="block-shorter-than-items"),
    pytest.param(table_payload(table_header(2, ["h", 6], ["b", 2]), H2 + b"\x00\x00", B2), id="block-longer-than-items"),
    pytest.param(table_payload(table_header(2, ["h", 3], ["b", 2]), H2[:3], B2), id="block-not-a-multiple-of-itemsize"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 200]), H2, B2), id="lengths-overrun-payload"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2]), H2, B2, b"\x00"), id="trailing-bytes"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2]), H2, B2, header_length=10_000), id="header-length-past-payload"),
    pytest.param(b"\x01\x00\x00", id="prefix-truncated"),
    pytest.param(table_payload(table_header(-2, ["h", 4], ["b", 2]), H2, B2), id="negative-n"),
    pytest.param(table_payload(table_header(True, ["b", 1]), b"\x01"), id="bool-n"),
    pytest.param(table_payload(table_header(2.0, ["h", 4], ["b", 2]), H2, B2), id="float-n"),
    pytest.param(table_payload(table_header(None, ["b", 0])), id="n-missing"),
    pytest.param(table_payload(table_header(10**30, ["b", 2]), B2), id="n-astronomical"),
    pytest.param(table_payload(table_header(2, ["x", 4], ["b", 2]), H2, B2), id="unknown-tag"),
    pytest.param(table_payload(table_header(2, ["I", 8], ["b", 2]), I2, B2), id="index-tag-as-a-column"),
    pytest.param(table_payload(table_header(2, ["", 4], ["b", 2]), H2, B2), id="empty-tag"),
    pytest.param(table_payload(table_header(2, ["hi", 4], ["b", 2]), H2, B2), id="two-letter-tag"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["bh", 2]), H2, B2), id="m-two-letter-tag"),
    pytest.param(table_payload(table_header(2, [["h"], 4], ["b", 2]), H2, B2), id="tag-not-a-string"),
    pytest.param(table_payload(table_header(2, ["h", "4"], ["b", 2]), H2, B2), id="length-not-an-integer"),
    pytest.param(table_payload(table_header(2, ["h", -4], ["b", 2]), H2, B2), id="negative-length"),
    pytest.param(table_payload(table_header(2, ["h", True], ["b", 2]), H2[:1], B2), id="bool-length"),
    pytest.param(table_payload(table_header(2, "h", ["b", 2]), B2), id="descriptor-not-a-list"),
    pytest.param(table_payload(table_header(2, ["h"], ["b", 2]), B2), id="descriptor-too-short"),
    pytest.param(table_payload(table_header(2)), id="no-multiplicity-block"),
    pytest.param(table_payload({"m": {"sub": 1}, "k": "delta", "n": 2, "b": {"h": 4}}, H2), id="descriptors-not-a-list"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["d", 16]), H2, struct.pack("<2d", 1.0, 1.0)), id="m-float-block"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["s", len(NAMES) + 8, len(NAMES)]), H2, NAMES, I2), id="m-string-block"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["j", 5]), H2, b"[1,1]"), id="m-json-block"),
    pytest.param(table_payload(table_header(2, ["s", len(NAMES) + 8, len(NAMES)], ["b", 2]), NAMES, struct.pack("<2I", 0, 2), B2), id="index-out-of-range"),
    pytest.param(table_payload(table_header(2, ["s", 10, 2], ["b", 2]), b"[]", I2, B2), id="index-into-empty-dictionary"),
    pytest.param(table_payload(table_header(2, ["s", 17, 9], ["b", 2]), b'["x", 7] ', I2, B2), id="dictionary-holds-a-number"),
    pytest.param(table_payload(table_header(2, ["s", 19, 11], ["b", 2]), b'{"x": "y"} ', I2, B2), id="dictionary-not-a-list"),
    pytest.param(table_payload(table_header(2, ["s", 12, 4], ["b", 2]), b"\xff\xfe[]", I2, B2), id="dictionary-not-utf8"),
    pytest.param(table_payload(table_header(2, ["s", len(NAMES) + 8, 99], ["b", 2]), NAMES, I2, B2), id="dictionary-length-past-block"),
    pytest.param(table_payload(table_header(2, ["s", len(NAMES) + 8, -1], ["b", 2]), NAMES, I2, B2), id="dictionary-length-negative"),
    pytest.param(table_payload(table_header(2, ["s", len(NAMES) + 8], ["b", 2]), NAMES, I2, B2), id="dictionary-length-missing"),
    pytest.param(table_payload(table_header(2, ["s", len(NAMES) + 4, len(NAMES)], ["b", 2]), NAMES, I2[:4], B2), id="index-block-too-short"),
    pytest.param(table_payload(table_header(2, ["j", 3], ["b", 2]), b"[1]", B2), id="json-block-too-few"),
    pytest.param(table_payload(table_header(2, ["j", 7], ["b", 2]), b"[1,2,3]", B2), id="json-block-too-many"),
    pytest.param(table_payload(table_header(2, ["j", 7], ["b", 2]), b"[1,[2]]", B2), id="json-block-nested-list"),
    pytest.param(table_payload(table_header(2, ["j", 10], ["b", 2]), b'[1,{"a":2}', B2), id="json-block-truncated"),
    pytest.param(table_payload(table_header(2, ["j", 9], ["b", 2]), b'{"0":1}  ', B2), id="json-block-not-a-list"),
    pytest.param(table_payload(table_header(1, ["j", 4000], ["b", 1]), b"[" * 2000 + b"]" * 2000, b"\x01"), id="json-block-nesting-bomb"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2], message={"sub": 1, "delta": []}), H2, B2), id="two-values-for-the-table-key"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2], key=None), H2, B2), id="key-missing"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2], key=7), H2, B2), id="key-not-a-string"),
    pytest.param(table_payload(table_header(2, ["h", 4], ["b", 2], message=[1]), H2, B2), id="message-not-an-object"),
    pytest.param(table_payload([{"sub": 1}, "delta", 2, [["b", 2]]], B2), id="header-not-an-object"),
    pytest.param(table_payload(b"null", B2), id="header-null"),
    pytest.param(table_payload(b'{"m": {"sub": 1}, "k": "del', B2), id="header-truncated-json"),
    pytest.param(table_payload(b"\xff\xfe{}", B2), id="header-not-utf8"),
]  # fmt: skip


def test_a_handmade_table_payload_decodes():
    """The hostile payloads below are each one defect away from this one."""
    payload = table_payload(table_header(2, ["h", 4], ["b", 2]), H2, B2)
    assert unwire_pairs(decode_payload(payload)["delta"]) == [((7,), 1), ((8,), 1)]
    payload = table_payload(
        table_header(2, ["s", len(NAMES) + 8, len(NAMES)], ["j", 8], ["b", 2]), NAMES, I2, b"[null,1]", B2
    )
    assert unwire_pairs(decode_payload(payload)["delta"]) == [(("x", None), 1), (("y", 1), 1)]


@pytest.mark.parametrize("payload", HOSTILE_TABLE_PAYLOADS)
def test_hostile_table_payload_is_a_protocol_error(payload):
    with pytest.raises(ProtocolError):
        decode_payload(payload)
    # off a socket it is the same error, so a client's reader ends with it
    # before any mirror has seen a byte of the push
    ours, theirs = socket.socketpair()
    with ours, theirs:
        theirs.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            read_frame(ours)


def is_wire_scalar(value) -> bool:
    return type(value) in (int, float, str, bool, type(None))


@given(pairs=pair_lists(), data=st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_table_frames_decode_to_typed_pairs_or_a_protocol_error(pairs, data):
    """Truncate, flip or splice any byte of a valid frame: what comes out is
    well-typed pairs or ``ProtocolError`` — never ``struct.error``,
    ``ValueError``, ``IndexError``, ``OverflowError`` or ``MemoryError``."""
    payload = encode_frame({"sub": 1, "kind": "delta", "version": 3, "delta": wire_pairs(pairs)})[4:]
    position = data.draw(st.integers(0, len(payload) - 1), label="position")
    mutation = data.draw(st.sampled_from(("truncate", "flip", "splice")), label="mutation")
    if mutation == "truncate":
        mutated = payload[:position]
    elif mutation == "flip":
        bits = data.draw(st.integers(1, 255), label="bits")
        mutated = payload[:position] + bytes([payload[position] ^ bits]) + payload[position + 1 :]
    else:
        inserted = data.draw(st.binary(max_size=8), label="inserted")
        dropped = data.draw(st.integers(0, 8), label="dropped")
        mutated = payload[:position] + inserted + payload[position + dropped :]
    try:
        message = decode_payload(mutated)
        tables = [value for value in message.values() if type(value) is PairTable]
        decoded = [unwire_pairs(table) for table in tables]
    except ProtocolError:
        return
    for table, table_pairs in zip(tables, decoded):
        assert len(table_pairs) == len(table)
        for tup, mult in table_pairs:
            assert type(tup) is tuple and all(map(is_wire_scalar, tup))
            assert type(mult) is int


def test_hostile_pair_tables_fail_only_their_own_session():
    """A live server fed every hostile table where it expects updates: the
    sender gets an error per frame, nothing is applied, and a subscribed
    session beside it never notices.  So does a well-formed binary table
    where updates belong.  A frame that is not a JSON object, or a binary
    table frame with a defect, then costs the sender — and only the sender
    — its connection."""
    tables = [param.values[0] for param in HOSTILE_PAIR_TABLES]
    tables.remove([])  # as an update list, an empty list is a valid empty batch
    tables.append(wire_pairs([(("R", 0, 0), 1)]))
    payloads = [param.values[0] for param in HOSTILE_TABLE_PAYLOADS]
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as healthy:
            subscription = healthy.subscribe()
            version = subscription.version
            hostile = socket.create_connection(("127.0.0.1", handle.port), 5)
            hostile.settimeout(10)
            try:
                for request_id, table in enumerate(tables, start=1):
                    write_frame(
                        hostile, {"op": "apply_batch", "id": request_id, "updates": table}
                    )
                    reply = read_frame(hostile)
                    assert reply["id"] == request_id and reply["ok"] is False, reply
                hostile.sendall(encode_frame({})[:3] + b"\x03[1]")
                assert hostile.recv(1) == b""
            finally:
                hostile.close()
            for payload in payloads:
                with socket.create_connection(("127.0.0.1", handle.port), 5) as hostile:
                    hostile.settimeout(10)
                    hostile.sendall(struct.pack(">I", len(payload)) + payload)
                    assert hostile.recv(1) == b""
            assert serving.engine.version == version
            assert healthy.ping()["version"] == version
            committed = healthy.apply_batch([Update("R", (0, 0), 1)])
            assert subscription.wait_for_version(committed, 30.0)
            assert healthy.server_stats()["net"]["connections_current"] == 1


HOSTILE_TUPLES = [
    pytest.param([[1, 2], 3], id="nested-list"),
    pytest.param([{"a": 1}, 3], id="object-value"),
    pytest.param([1, [2]], id="nested-last"),
    pytest.param({"0": 1, "1": 2}, id="object"),
    pytest.param("12", id="string"),
    pytest.param(12, id="number"),
    pytest.param(None, id="null"),
]


@pytest.mark.parametrize("raw", HOSTILE_TUPLES)
def test_hostile_tuple_is_a_protocol_error(raw):
    parsed = decode_payload(encode_frame({"tuple": raw})[4:])["tuple"]
    with pytest.raises(ProtocolError):
        unwire_tuple(parsed)
    with pytest.raises(ProtocolError):
        unwire_updates([["R", parsed, 1]])
    assert unwire_tuple([1, "x", None, 2.5, True]) == (1, "x", None, 2.5, True)


HOSTILE_UPDATES = [
    pytest.param(["R", [1, 2], 2.7], id="float-multiplicity"),
    pytest.param(["R", [1, 2], True], id="bool-multiplicity"),
    pytest.param(["R", [1, 2], "3"], id="string-multiplicity"),
    pytest.param(["R", [1, 2], None], id="null-multiplicity"),
    pytest.param(["R", [1, 2], [1]], id="list-multiplicity"),
    pytest.param(["R", [1, 2], 0], id="zero-multiplicity"),
    pytest.param([7, [1, 2], 1], id="number-relation"),
    pytest.param([None, [1, 2], 1], id="null-relation"),
    pytest.param([["R"], [1, 2], 1], id="list-relation"),
]


@pytest.mark.parametrize("raw", HOSTILE_UPDATES)
def test_hostile_update_is_a_protocol_error(raw):
    """Multiplicities and relation names are taken as sent or refused —
    never truncated, coerced or stringified on the way in."""
    parsed = decode_payload(encode_frame({"update": raw})[4:])["update"]
    with pytest.raises(ProtocolError):
        unwire_updates([parsed])
    assert unwire_updates([["R", [1, 2], -3]]) == [Update("R", (1, 2), -3)]


def test_hostile_tuples_are_refused_as_protocol_errors_by_a_live_server():
    """Unhashable tuple values used to reach the engine and come back as an
    ``InternalError``; every op that takes a tuple now refuses them by name.
    So do the update ops for a multiplicity or relation of the wrong type."""
    tuples = [param.values[0] for param in HOSTILE_TUPLES]
    with serve() as (serving, handle):
        version = serving.engine.version
        hostile = socket.create_connection(("127.0.0.1", handle.port), 5)
        hostile.settimeout(10)
        try:
            write_frame(hostile, {"op": "snapshot_open", "id": 0})
            snap = read_frame(hostile)["snap"]
            requests = []
            for raw in tuples:
                requests.append({"op": "lookup", "tuple": raw})
                requests.append({"op": "snapshot_lookup", "snap": snap, "tuple": raw})
                requests.append({"op": "apply_update", "update": ["R", raw, 1]})
                requests.append({"op": "apply_batch", "updates": [["R", raw, 1]]})
            for param in HOSTILE_UPDATES:
                requests.append({"op": "apply_update", "update": param.values[0]})
                requests.append({"op": "apply_batch", "updates": [param.values[0]]})
            for request_id, request in enumerate(requests, start=1):
                write_frame(hostile, dict(request, id=request_id))
                reply = read_frame(hostile)
                assert reply["id"] == request_id and reply["ok"] is False, reply
                assert reply["kind"] == "ProtocolError", (request, reply)
            write_frame(hostile, {"op": "lookup", "id": 999, "tuple": [0, 0]})
            assert read_frame(hostile)["ok"] is True
        finally:
            hostile.close()
        assert serving.engine.version == version


def test_a_malformed_subscription_queue_is_a_protocol_error():
    """``queue`` used to go through ``int()``: a list or a dict came back as
    an ``InternalError``, and ``"7"``, ``True`` or ``2.9`` were silently
    coerced.  Both subscription ops now refuse anything but a positive
    integer by name, and the connection stays usable."""
    spec = AggregateSpec.coerce("counting").to_wire()
    with serve() as (serving, handle):
        hostile = socket.create_connection(("127.0.0.1", handle.port), 5)
        hostile.settimeout(10)
        try:
            request_id = 0
            for queue in ([1], {"a": 1}, "7", True, 2.9, 0, -3):
                for request in (
                    {"op": "subscribe"},
                    {"op": "subscribe_aggregate", "spec": spec},
                ):
                    request_id += 1
                    write_frame(hostile, dict(request, id=request_id, queue=queue))
                    reply = read_frame(hostile)
                    assert reply["id"] == request_id and reply["ok"] is False, reply
                    assert reply["kind"] == "ProtocolError", (queue, reply)
                    assert "queue" in reply["error"]
            write_frame(hostile, {"op": "subscribe", "id": 999, "queue": 2})
            reply = read_frame(hostile)
            assert reply["id"] == 999 and reply["ok"] is True, reply
        finally:
            hostile.close()


def test_pairs_and_updates_roundtrip():
    pairs = [((1, "x"), 2), ((3, 4), -1)]
    assert unwire_pairs(wire_pairs(pairs)) == pairs
    updates = [Update("R", (1, 2), 1), Update("S", ("a", 0), -2)]
    assert unwire_updates(wire_updates(updates)) == updates
    with pytest.raises(ProtocolError):
        unwire_pairs([["missing-mult"]])
    with pytest.raises(ProtocolError):
        unwire_updates([["R", [1, 2]]])  # missing multiplicity


# ----------------------------------------------------------------------
# request/response ops
# ----------------------------------------------------------------------
def test_ping_read_and_lookup_roundtrip():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            hello = client.ping()
            assert hello["query"] == str(serving.engine.query)
            assert hello["mode"] == "dynamic"
            version, pairs = client.read()
            expected = serving.engine.result()
            assert version == serving.engine.version
            assert {tup: mult for tup, mult in pairs} == expected
            if expected:
                probe = next(iter(expected))
                assert client.lookup(probe) == expected[probe]
            assert client.lookup((99, 99)) == 0


def test_paged_snapshot_enumeration():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            with client.open_snapshot() as snap:
                pairs, done = snap.page(7)
                assert len(pairs) == 7 and not done
                rest = list(snap.pairs(page_size=11))
                full = {tup: mult for tup, mult in pairs + rest}
                assert full == serving.engine.result()
                # the cursor is exhausted: further pages are empty
                tail, done = snap.page(5)
                assert tail == [] and done
            # closed handle is gone server-side
            with pytest.raises(RemoteError):
                client.request("snapshot_page", snap=snap.snap, limit=5)


def test_snapshot_is_isolated_from_later_commits():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            before = serving.engine.result()
            snap = client.open_snapshot()
            client.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 7), 1)])
            assert snap.result(page_size=20) == before
            snap.close()
            assert client.result() == serving.engine.result()


def test_snapshot_limit_per_session():
    config = ServerConfig(max_snapshots_per_session=2)
    with serve(config=config) as (_, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            first = client.open_snapshot()
            client.open_snapshot()
            with pytest.raises(RemoteError, match="snapshot limit"):
                client.open_snapshot()
            first.close()  # freeing one slot re-admits
            client.open_snapshot()


def test_wire_apply_update_and_rejection_kinds():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            version = client.apply_update(Update("R", (5, 5), 1))
            assert version == serving.engine.version
            assert serving.stats.batches_applied == 1
            with pytest.raises(RemoteError) as info:
                client.apply_batch([Update("R", (7, 7), -3)])
            assert info.value.kind == "RejectedUpdateError"
            # the rejected commit neither bumped the version nor broke serving
            assert client.read()[0] == version


def test_unknown_op_and_bad_snapshot_handle():
    with serve() as (_, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            with pytest.raises(RemoteError, match="unknown op"):
                client.request("frobnicate")
            with pytest.raises(RemoteError, match="unknown snapshot"):
                client.request("snapshot_page", snap=999, limit=5)


def test_connection_limit_refuses_with_error_frame():
    config = ServerConfig(max_connections=1)
    with serve(config=config) as (_, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            client.ping()
            refused = socket.create_connection(("127.0.0.1", handle.port), 5)
            try:
                reply = read_frame(refused)
                assert reply["ok"] is False and reply["kind"] == "ServerBusy"
            finally:
                refused.close()
            # the admitted session keeps working
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            stats = client.server_stats()
            assert stats["net"]["connections_refused"] == 1


# ----------------------------------------------------------------------
# snapshot_open pins the published version
# ----------------------------------------------------------------------
def record_published(serving) -> list:
    """Every ``_PublishedVersion`` the server publishes from now on."""
    published = [serving._published] if serving._published is not None else []
    publish = serving._publish_locked

    def recording():
        entry = publish()
        published.append(entry)
        return entry

    serving._publish_locked = recording
    return published


def count_captures(engine) -> list:
    """One entry per ``engine.snapshot()`` call from now on."""
    captures = []
    capture = engine.snapshot
    engine.snapshot = lambda: captures.append(1) or capture()
    return captures


def test_snapshot_open_and_page_answer_while_the_write_lock_is_held():
    """Snapshot mode pins the last committed version: it waits neither for
    the write lock (a commit in flight) nor for a capture."""
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            version = client.apply_update(Update("R", (3, 3), 1))  # publishes
            expected = serving.engine.result()
            answers = {}

            def reader():
                with client.open_snapshot() as snap:
                    answers["version"] = snap.version
                    answers["page"], _ = snap.page(5)
                    answers["rest"] = list(snap.pairs(page_size=50))
                answers["lookup"] = client.lookup(next(iter(expected)))
                answers["read"] = client.read()[0]

            thread = threading.Thread(target=reader)
            with serving._write_lock:  # what a commit holds while it maintains
                thread.start()
                thread.join(10.0)
                assert not thread.is_alive(), "a read waited for the write lock"
            assert answers["version"] == answers["read"] == version
            assert len(answers["page"]) == 5
            assert dict(answers["page"] + answers["rest"]) == expected
            assert answers["lookup"] == expected[next(iter(expected))]


def test_an_acked_commit_is_visible_in_the_next_snapshot_open():
    """Publish precedes the ack, so read-your-acked-writes holds across
    connections with no lock taken on the read side."""
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as writer, EngineClient(
            "127.0.0.1", handle.port
        ) as reader:
            for step in range(25):
                acked = writer.apply_update(Update("R", (100 + step, step % DOMAIN), 1))
                with reader.open_snapshot() as snap:
                    assert snap.version == acked
                    assert snap.result() == serving.engine.result()
                assert reader.read()[0] == acked


def test_wire_reads_capture_nothing_in_snapshot_mode():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            client.apply_update(Update("R", (3, 3), 1))
            client.read()
            captures = count_captures(serving.engine)
            stats = dict(serving.engine.snapshot_stats)
            published = serving._published
            probe = next(iter(serving.engine.result()))
            for _ in range(10):
                with client.open_snapshot() as snap:
                    snap.page(5)
                    snap.lookup(probe)
                client.lookup(probe)
                client.read(limit=5)
            assert captures == []
            assert serving._published is published and published._pins == 0
            # the one published version froze what it read once, then no more
            assert serving.engine.snapshot_stats == stats


def test_sessions_leave_no_pin_behind():
    """Disconnect mid-page, a handle closed twice, the session limit hit:
    every published version ends with zero pins, and every superseded one
    closed."""
    config = ServerConfig(max_snapshots_per_session=3)
    with serve(config=config) as (serving, handle):
        published = record_published(serving)
        with EngineClient("127.0.0.1", handle.port) as writer:
            writer.apply_update(Update("R", (3, 3), 1))
            client = EngineClient("127.0.0.1", handle.port)
            first = client.open_snapshot()
            first.page(2)  # mid-page: the iterator is half-drained
            writer.apply_update(Update("R", (4, 4), 1))  # supersedes what `first` pins
            second = client.open_snapshot()
            client.open_snapshot()
            with pytest.raises(RemoteError, match="snapshot limit"):
                client.open_snapshot()
            second.close()
            with pytest.raises(RemoteError, match="unknown snapshot"):
                client.request("snapshot_close", snap=second.snap)
            writer.apply_update(Update("R", (5, 5), 1))
            assert first.version < serving.engine.version
            assert first.page(2)[0]  # still readable: pinned, not yet closed
            # abrupt socket death: no snapshot_close, no clean goodbye
            # (the close after the abort only stops the dead client's loop thread)
            client._loop.call_soon_threadsafe(client._async._writer.transport.abort)
            client.close()
            assert wait_until(lambda: all(entry._pins == 0 for entry in published))
            assert len(published) >= 3
            current = serving._published
            for entry in published:
                assert entry._closed == (entry is not current)
                assert entry.snapshot._state.closed == (entry is not current)


def test_pin_close_is_idempotent_across_threads():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    serving = EngineServer(engine)
    for _ in range(50):
        pinned = serving.pin()
        entry = serving._published
        assert entry._pins == 1 and pinned.version == engine.version
        barrier = threading.Barrier(3)

        def close():
            barrier.wait()
            pinned.close()

        threads = [threading.Thread(target=close) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert entry._pins == 0 and not entry._closed
        serving.apply_update(Update("R", (0, 0), 1))  # retires it
        assert entry._closed and entry.snapshot._state.closed


def test_commits_and_the_cold_read_share_the_writer_thread():
    """Every commit runs on the one writer thread, and so does the read
    that finds nothing published yet — it makes the first frozen copies,
    the ones the writer rolls forward and replaces from then on.  Once a
    version is published, reads run on the pool."""
    with serve() as (serving, handle):
        where = []
        read = serving.read

        def recording_read(*args):
            where.append(("read", threading.current_thread().name))
            return read(*args)

        serving.read = recording_read
        serving.on_commit(
            lambda version, delta: where.append(("commit", threading.current_thread().name))
        )
        assert serving.cold
        with EngineClient("127.0.0.1", handle.port) as client:
            client.read()  # captures version 0 and freezes what it binds
            assert not serving.cold
            assert serving.engine.snapshot_stats["full_copies"] > 0
            for step in range(5):
                client.apply_update(Update("R", (200 + step, step % DOMAIN), 1))
            client.apply_batch([Update("S", (1, 300), 1)])
            client.read()
        (_, cold_read), *commits, (_, warm_read) = where
        assert [kind for kind, _ in commits] == ["commit"] * 6
        assert cold_read.startswith("repro-net-writer")
        assert {thread for _, thread in commits} == {cold_read}
        assert not warm_read.startswith("repro-net-writer")


# ----------------------------------------------------------------------
# subscriptions
# ----------------------------------------------------------------------
class RetuneOnceController:
    """Retunes exactly once, at the Nth consult."""

    def __init__(self, engine, at_commit: int) -> None:
        self.engine = engine
        self.at_commit = at_commit
        self.consults = 0

    def maybe_retune(self):
        self.consults += 1
        if self.consults == self.at_commit:
            self.engine.retune(0.9)
            return 0.9
        return None


def record_applied_pushes(state):
    """Wrap ``state.apply`` so every applied push lands in the returned list.

    The mirror keeps no history of its own; nothing has been pushed yet when
    a test calls this right after subscribing and before its first write.
    """
    events = []
    apply = state.apply

    def recording_apply(message):
        changed = apply(message)
        if changed:
            kind = message["kind"]
            pairs = message["delta" if kind == "delta" else "result"]
            events.append((kind, message["version"], pairs))
        return changed

    state.apply = recording_apply
    return events


def test_subscription_conformance_across_retune():
    """Pushed deltas reproduce the oracle at every version, spanning an
    auto-retune that bumps the version mid-stream."""
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.3).load(make_database())
    controller = RetuneOnceController(engine, at_commit=10)
    oracle = NaiveRecomputeEngine(PATH_QUERY)
    oracle.load(make_database())
    with serve(engine=engine, controller=controller) as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            subscription = client.subscribe(query=PATH_QUERY)
            initial = dict(subscription.result())
            assert initial == oracle.result()
            events = record_applied_pushes(subscription.state)

            rng = random.Random(55)
            inserted = []
            trajectory = {}
            final_version = subscription.version
            for _ in range(20):
                batch = mixed_batch(rng, inserted)
                final_version = client.apply_batch(batch)
                for update in batch:
                    oracle.update(update.relation, update.tuple, update.multiplicity)
                trajectory[final_version] = oracle.result()

            assert controller.consults >= 20  # the retune really happened
            assert subscription.wait_for_version(final_version, 30.0)
            assert subscription.result() == oracle.result()

            # replay every pushed delta from the initial result: the mirror
            # must equal the oracle at each version stamp it passes through
            replay = dict(initial)
            matched = 0
            for kind, version, pairs in events:
                assert kind == "delta"
                for tup, mult in pairs:
                    updated = replay.get(tup, 0) + mult
                    if updated:
                        replay[tup] = updated
                    else:
                        replay.pop(tup, None)
                if version in trajectory:
                    assert replay == trajectory[version], (
                        f"pushed deltas diverged at version {version}"
                    )
                    matched += 1
            assert matched == len(trajectory)
    engine.close()


def test_subscribe_rejects_wrong_query_and_static_engine():
    with serve() as (_, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            with pytest.raises(RemoteError) as info:
                client.subscribe(query="Q(A) = R(A, B), S(B)")
            assert info.value.kind == "UnsupportedQueryError"
    static = StaticEngine(PATH_QUERY)
    static.load(make_database())
    with serve(engine=static) as (_, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            with pytest.raises(RemoteError) as info:
                client.subscribe()
            assert info.value.kind == "UnsupportedQueryError"


def test_unsubscribe_stops_pushes():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            subscription = client.subscribe()
            client.apply_batch([Update("R", (0, 1), 1), Update("S", (1, 0), 1)])
            assert subscription.wait_for_version(serving.engine.version, 10.0)
            subscription.close()
            client.apply_batch([Update("R", (0, 2), 1), Update("S", (2, 0), 1)])
            time.sleep(0.3)
            assert subscription.version < serving.engine.version
            stats = client.server_stats()
            assert stats["net"]["subscribers_current"] == 0


def test_commit_delta_is_wired_only_for_plain_subscribers(monkeypatch):
    """The commit listener runs under the engine's write lock: it builds the
    pair table of a commit only while a plain (tuple) subscriber exists."""
    import repro.net.server as server_module

    wired = []

    def counting_wire_pairs(pairs):
        table = wire_pairs(pairs)
        wired.append(len(table))
        return table

    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            client.apply_batch([Update("R", (0, 1), 1), Update("S", (1, 0), 1)])
            aggregate = client.subscribe_aggregate("counting")
            version = client.apply_batch([Update("R", (0, 2), 1), Update("S", (2, 0), 1)])
            assert aggregate.wait_for_version(version, 10.0)
            monkeypatch.setattr(server_module, "wire_pairs", counting_wire_pairs)
            version = client.apply_batch([Update("R", (0, 3), 1), Update("S", (3, 0), 1)])
            assert aggregate.wait_for_version(version, 10.0)
            assert wired == []  # nobody to serialise the tuple delta for

            subscription = client.subscribe()
            del wired[:]  # the subscribe response wired the initial result
            version = client.apply_batch([Update("R", (0, 4), 1), Update("S", (4, 0), 1)])
            assert subscription.wait_for_version(version, 10.0)
            assert len(wired) == 1 and wired[0] > 0
            assert subscription.result() == client.result()


def test_a_commit_is_encoded_once_however_many_subscribers(monkeypatch):
    """Column encodes per commit do not depend on the subscriber count: the
    commit's table is built once, in the committing thread, and every
    subscriber's frame carries the same blocks."""
    import repro.net.protocol as protocol_module

    encodes, threads = [], set()
    encode = protocol_module.encode_column

    def counting_encode_column(values):
        encodes.append(len(values))
        threads.add(threading.current_thread().name)
        return encode(values)

    commits = 6

    def column_encodes(subscribers: int) -> int:
        with serve() as (serving, handle):
            with contextlib.ExitStack() as stack:
                clients = [
                    stack.enter_context(EngineClient("127.0.0.1", handle.port))
                    for _ in range(subscribers)
                ]
                mirrors = [client.subscribe() for client in clients]
                pushed = [record_applied_pushes(mirror.state) for mirror in mirrors]
                del encodes[:]  # the subscribe responses wired the initial result
                threads.clear()
                for step in range(commits):
                    version = clients[0].apply_batch(
                        [Update("R", (0, step), 1), Update("S", (step, 0), 1)]
                    )
                for mirror in mirrors:
                    assert mirror.wait_for_version(version, 10.0)
                    assert mirror.state.deltas_applied == commits
                    assert mirror.result() == serving.engine.result()
                # ``push_bytes`` is the frames the subscribers were sent: a
                # received table frames again to the size it arrived in
                sent = sum(
                    len(encode_frame({"sub": mirror.sid, "kind": kind, "version": at, "delta": table}))
                    for mirror, events in zip(mirrors, pushed)
                    for kind, at, table in events
                )
                stats = handle.server.stats.as_dict
                assert wait_until(lambda: stats()["push_bytes"] == sent), (stats(), sent)
                assert stats()["deltas_pushed"] == subscribers * commits
                return len(encodes)

    monkeypatch.setattr(protocol_module, "encode_column", counting_encode_column)
    assert column_encodes(1) == commits * 3  # two result columns and the multiplicities
    assert threads == {"repro-net-writer_0"}  # the committing thread
    assert column_encodes(20) == commits * 3
    assert threads == {"repro-net-writer_0"}


def test_slow_subscriber_coalesces_to_resync():
    """A wedged subscriber overflows its bounded queue, gets coalesced,
    and re-converges through one full-state resync."""
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(
        make_database(rows=0, hot=400)
    )
    oracle = NaiveRecomputeEngine(PATH_QUERY)
    oracle.load(make_database(rows=0, hot=400))
    config = ServerConfig(subscriber_queue_size=2, send_buffer_bytes=4096)
    with serve(engine=engine, config=config) as (serving, handle):
        wedged = socket.socket()
        wedged.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        wedged.connect(("127.0.0.1", handle.port))
        write_frame(wedged, {"op": "subscribe", "id": 1, "queue": 2})
        reply = read_frame(wedged)
        assert reply["ok"], reply
        version = reply["version"]
        state = {tup: mult for tup, mult in unwire_pairs(reply["result"])}

        # every commit fans 400 result tuples at the wedged subscriber
        for a in range(30):
            serving.apply_batch([Update("R", (a, 0), 1)])
            oracle.update("R", (a, 0), 1)
        final = engine.version
        time.sleep(0.3)

        resyncs = 0
        wedged.settimeout(15)
        while version < final:
            message = read_frame(wedged)
            if "sub" not in message:
                continue
            if message["kind"] == "delta":
                if message["version"] <= version:
                    continue
                for tup, mult in unwire_pairs(message["delta"]):
                    updated = state.get(tup, 0) + mult
                    if updated:
                        state[tup] = updated
                    else:
                        state.pop(tup, None)
                version = message["version"]
            else:
                state = {t: m for t, m in unwire_pairs(message["result"])}
                version = message["version"]
                resyncs += 1
        wedged.close()

        assert state == oracle.result(), "diverged after resync"
        assert resyncs >= 1, "bounded queue never overflowed into a resync"
        net = handle.server.stats.as_dict()
        assert net["resyncs"] >= 1
        assert net["max_queue_depth"] <= config.subscriber_queue_size
    engine.close()


def test_async_client_subscription():
    import asyncio

    with serve() as (serving, handle):
        oracle = NaiveRecomputeEngine(PATH_QUERY)
        oracle.load(make_database())

        async def scenario():
            clients = [
                await AsyncEngineClient.connect("127.0.0.1", handle.port)
                for _ in range(5)
            ]
            subs = [await client.subscribe() for client in clients]
            rng = random.Random(1)
            inserted = []
            final = 0
            for _ in range(8):
                batch = mixed_batch(rng, inserted)
                final = await clients[0].apply_batch(batch)
                for update in batch:
                    oracle.update(update.relation, update.tuple, update.multiplicity)
            waits = await asyncio.gather(
                *(sub.wait_for_version(final, 20.0) for sub in subs)
            )
            assert all(waits)
            for sub in subs:
                assert sub.result == oracle.result()
            for client in clients:
                await client.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# metrics and introspection
# ----------------------------------------------------------------------
def test_metrics_over_http_and_op():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            client.apply_batch([Update("R", (0, 0), 1)])
            client.read()
            text = client.metrics()
            for needle in (
                "# TYPE repro_engine_version gauge",
                "repro_serving_batches_applied 1",
                "repro_serving_reads_served",
                "repro_rebalance_batches",
                "repro_workload_update_events",
                "# TYPE repro_snapshot_full_copies counter",
                "# TYPE repro_snapshot_carried_indexes counter",
                "repro_snapshot_replayed_entries",
                "repro_net_connections_current 1",
                "# TYPE repro_net_push_bytes_total counter",
                "repro_net_push_bytes_total 0",
            ):
                assert needle in text, f"{needle!r} missing:\n{text}"
            http = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/metrics", timeout=10
            )
            assert http.status == 200
            assert "version=0.0.4" in http.headers["Content-Type"]
            assert "repro_engine_version" in http.read().decode()
            with pytest.raises(urllib.request.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{handle.port}/nope", timeout=10
                )
            stats = client.server_stats()
            assert stats["net"]["http_requests"] >= 1
            assert stats["serving"]["batches_applied"] == 1
            assert stats["version"] == serving.engine.version


def test_durability_metrics_family_only_when_served_durable(tmp_path):
    from repro.durability import DurabilityConfig

    with serve() as (_serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            assert "repro_durability_" not in client.metrics()
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    with serve(engine) as (_serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            client.apply_batch([Update("R", (0, 0), 1)])
            unchecked = engine.durability_stats.wal_bytes
            text = client.metrics()
            for needle in (
                "# TYPE repro_durability_wal_bytes_since_checkpoint gauge",
                f"repro_durability_wal_bytes_since_checkpoint {unchecked}",
                "# TYPE repro_durability_checkpoint_age_seconds gauge",
                "# TYPE repro_durability_checkpoints_written_total counter",
                "repro_durability_checkpoints_written_total 1",
                "repro_durability_checkpoints_skipped_inflight_total 0",
                "repro_durability_checkpoint_last_seconds",
                "repro_durability_checkpoint_failures_total 0",
            ):
                assert needle in text, f"{needle!r} missing:\n{text}"
            engine.checkpoint()
            assert "repro_durability_wal_bytes_since_checkpoint 0" in client.metrics()
    engine.close()


def test_server_survives_garbage_bytes():
    with serve() as (_, handle):
        sock = socket.create_connection(("127.0.0.1", handle.port), 5)
        sock.sendall(b"\x00\x00\x00\x05notjs")
        sock.close()
        # and a clean client still works afterwards
        with EngineClient("127.0.0.1", handle.port) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION
