"""The write-ahead log: length-prefixed, CRC32-checksummed redo records.

File format (``wal-<v>.log``, where ``v`` is the engine version the
segment starts *after*)::

    REPROWAL1\\n                     10-byte magic
    [4B big-endian payload length]
    [4B big-endian CRC32 of payload]
    [payload: compact JSON]          repeated per record

Each payload carries the engine version it produced (``"v"``) and one of
three kinds — ``update``, ``batch`` (relation-grouped net deltas in
first-touched order, plus the source-update count), or ``retune`` — one
per commit event; :func:`encode` and :func:`decode` are the only code that
knows the shape.
Versions are strictly increasing by one within and across segments, so a
duplicate or out-of-order version is corruption by construction and the
scanner truncates there, exactly as it does for a torn tail or a CRC
mismatch.

The durability contract is *commit = flushed + fsynced*: the writer
appends after the in-memory ingest succeeded (a redo log of **accepted**
events — a rejected over-delete is never logged, so replay can never be
poisoned by it) and fsyncs before the commit returns.  The crash model
is process death: a record cut short mid-write is a torn tail; a record
flushed but not yet fsynced is assumed to survive.  :func:`scan_wal`
never raises on crash residue — it returns the longest valid prefix, the
byte offset where it ends, and a human-readable warning per defect,
logged on ``repro.durability``.
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.data.update import Event, Retune, Update, UpdateBatch
from repro.durability.crashpoints import crash_point, would_crash
from repro.exceptions import DurabilityError

LOGGER = logging.getLogger("repro.durability")

WAL_MAGIC = b"REPROWAL1\n"
_HEADER = struct.Struct(">II")

#: Upper bound on a single record payload; anything larger is corruption
#: (a torn length prefix read as a huge integer), not a real record.
MAX_RECORD_BYTES = 1 << 26


def wal_name(version: int) -> str:
    """Segment filename for the WAL that starts after ``version``."""
    return f"wal-{version:016d}.log"


def wal_segments(directory: Path) -> "List[tuple]":
    """All WAL segments in ``directory`` as ``(start_version, path)``, sorted.

    ``start_version`` is parsed from the filename: the engine version the
    segment's records follow (its first record, if any, has version
    ``start_version + 1`` — unless older records were already retired by
    a later rotation).
    """
    found = []
    for path in Path(directory).glob("wal-*.log"):
        try:
            start = int(path.name[len("wal-") : -len(".log")])
        except ValueError:
            continue
        found.append((start, path))
    return sorted(found)


def encode(version: int, event: Event) -> Dict[str, Any]:
    """The WAL payload of one accepted event committed at ``version``.

    An :class:`Update` is an ``update`` record, an :class:`UpdateBatch` a
    ``batch`` record — relation groups and tuples in first-touched order
    (batch ingestion order is part of the state the replay must
    reproduce) plus the source-update count — and a :class:`Retune` a
    ``retune`` record.
    """
    if isinstance(event, Update):
        return {
            "v": version,
            "kind": "update",
            "rel": event.relation,
            "tup": list(event.tuple),
            "m": event.multiplicity,
        }
    if isinstance(event, Retune):
        return {"v": version, "kind": "retune", "eps": event.epsilon}
    deltas = [
        [relation, [[list(tup), mult] for tup, mult in group.items()]]
        for relation, group in event.deltas_by_relation().items()
    ]
    return {"v": version, "kind": "batch", "deltas": deltas, "src": event.source_count}


def decode(record: Dict[str, Any]) -> Event:
    """The event a scanned record logged: the inverse of :func:`encode`."""
    kind = record["kind"]
    if kind == "update":
        return Update(record["rel"], tuple(record["tup"]), int(record["m"]))
    if kind == "retune":
        return Retune(float(record["eps"]))
    if kind != "batch":
        raise DurabilityError(f"unknown WAL record kind {kind!r}")
    batch = UpdateBatch()
    for relation, entries in record["deltas"]:
        for tup, mult in entries:
            batch.add_delta(relation, tuple(tup), mult)
    batch._source_count = int(record["src"])
    return batch


def _frame(payload: Dict[str, Any]) -> bytes:
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(data), zlib.crc32(data)) + data


class WalWriter:
    """Appends framed records to one WAL segment, fsyncing per commit."""

    def __init__(self, path: Path, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.records_written = 0
        self.bytes_written = 0
        self._fh: Optional[io.BufferedWriter] = None
        # bytes handed to the OS since the last fsync; close() syncs only
        # when there are some, so a rotation does not pay a redundant fsync
        self._dirty = False

    @classmethod
    def create(cls, path: Path, fsync: bool = True) -> "WalWriter":
        """Start a fresh segment (magic written and fsynced immediately)."""
        writer = cls(path, fsync=fsync)
        writer._fh = open(path, "wb")
        writer._fh.write(WAL_MAGIC)
        writer._fh.flush()
        if fsync:
            os.fsync(writer._fh.fileno())
        return writer

    @classmethod
    def resume(cls, path: Path, valid_length: int, fsync: bool = True) -> "WalWriter":
        """Reopen a scanned segment for appending after crash residue.

        Physically truncates the file to ``valid_length`` (the scanner's
        longest-valid-prefix offset) so a torn tail can never shadow the
        records appended after recovery.
        """
        writer = cls(path, fsync=fsync)
        writer._fh = open(path, "r+b")
        writer._fh.truncate(valid_length)
        writer._fh.seek(valid_length)
        writer._fh.flush()
        if fsync:
            os.fsync(writer._fh.fileno())
        return writer

    def append(self, payload: Dict[str, Any]) -> None:
        """Frame, write, flush, and fsync one record (the commit point)."""
        if self._fh is None:
            raise ValueError("WAL writer is closed")
        record = _frame(payload)
        self._dirty = True
        crash_point("wal-append")
        if would_crash("wal-torn"):
            # Model a death halfway through the write: leave a real torn
            # tail on disk for the scanner to repair.
            self._fh.write(record[: max(1, len(record) // 2)])
            self._fh.flush()
        crash_point("wal-torn")
        self._fh.write(record)
        self._fh.flush()
        crash_point("wal-fsync")
        if self.fsync:
            os.fsync(self._fh.fileno())
            self._dirty = False
        self.records_written += 1
        self.bytes_written += len(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self.fsync and self._dirty:
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


@dataclass
class WalScan:
    """Result of scanning one segment: the longest valid record prefix."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    valid_length: int = len(WAL_MAGIC)
    truncated_bytes: int = 0
    warnings: List[str] = field(default_factory=list)


def scan_wal(path: Path, last_version: Optional[int] = None) -> WalScan:
    """Read every valid record of a segment, truncating at the first defect.

    ``last_version`` seeds the strict ``v == previous + 1`` continuity
    check across segments (``None`` accepts any starting version).  Torn
    tails, CRC mismatches, unparseable payloads, and version
    discontinuities all end the scan with a warning — never an exception.
    """
    scan = WalScan()
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(WAL_MAGIC):
        scan.valid_length = 0
        scan.truncated_bytes = len(data)
        _warn(scan, f"{path.name}: bad or missing WAL magic; ignoring the file")
        return scan
    offset = len(WAL_MAGIC)
    version = last_version
    while offset < len(data):
        defect = None
        record_end = len(data)
        if offset + _HEADER.size > len(data):
            defect = "torn record header"
        else:
            length, crc = _HEADER.unpack_from(data, offset)
            record_end = offset + _HEADER.size + length
            payload = data[offset + _HEADER.size : record_end]
            if length > MAX_RECORD_BYTES:
                defect = f"implausible record length {length}"
            elif len(payload) < length:
                defect = f"torn record payload ({len(payload)}/{length} bytes)"
            elif zlib.crc32(payload) != crc:
                defect = "CRC mismatch"
            else:
                try:
                    decoded = json.loads(payload.decode("utf-8"))
                    record_version = int(decoded["v"])
                except (ValueError, KeyError, TypeError):
                    defect = "unparseable payload"
                else:
                    if version is not None and record_version != version + 1:
                        defect = (
                            f"version {record_version} does not extend "
                            f"{version} (duplicate or out-of-order record)"
                        )
        if defect is not None:
            scan.truncated_bytes = len(data) - scan.valid_length
            _warn(
                scan,
                f"{path.name}: {defect} at offset {offset}; truncating "
                f"{scan.truncated_bytes} byte(s) to the last durable prefix",
            )
            break
        scan.records.append(decoded)
        version = record_version
        offset = record_end
        scan.valid_length = offset
    return scan


def _warn(scan: WalScan, message: str) -> None:
    scan.warnings.append(message)
    LOGGER.warning(message)
