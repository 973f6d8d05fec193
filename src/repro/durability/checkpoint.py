"""Checkpoint files: an atomic on-disk image of one engine version.

A checkpoint is a single framed record (same ``[length][CRC32][JSON]``
framing as the WAL, different magic) holding what recovery needs to
rebuild the engine's *durable* state — not just the query answer:

* the query text, ε, mode, and rebalancing flag (engine construction);
* the base relations, serialized in database registration order with
  tuples in relation insertion order — insertion order seeds a fresh
  build's index order, and it is what the driver's normalisation pass
  rebuilds from, so it is part of the state;
* the maintenance driver's ``version``, ``threshold_base`` (Definition
  51's ``M`` must survive a restart; re-deriving ``2N+1`` would forget
  doublings), rebalance counters, and telemetry aggregates.

Writing one is split so that the committing thread pays only the first
half.  :func:`engine_state` is the *capture*: scalars plus a private
``Relation.copy()`` of every base relation — tens of microseconds, and
the engine is only read.  :func:`write_checkpoint` is everything
proportional to the database (listify, JSON-encode, write, fsync,
rename); the durability manager runs it on its checkpoint writer.

Atomicity is rename-based: write to ``<name>.tmp``, flush, fsync,
``os.replace`` into place, fsync the directory.  A crash before the
rename leaves the previous checkpoint untouched; a crash after it leaves
a complete new one.  There is no in-between, which is why
:func:`load_newest_checkpoint` can simply walk candidates newest-first
and skip any that fail the CRC — at most the *newest* can be a leftover
``.tmp`` or a torn write, never a middle one.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.crashpoints import crash_point

LOGGER = logging.getLogger("repro.durability")

CHECKPOINT_MAGIC = b"REPROCKPT1\n"
_HEADER = struct.Struct(">II")

CHECKPOINT_SUFFIX = ".ckpt"


def checkpoint_name(version: int) -> str:
    """Checkpoint filename for engine ``version``."""
    return f"checkpoint-{version:016d}{CHECKPOINT_SUFFIX}"


def checkpoint_version(path: Path) -> Optional[int]:
    """Parse the version out of a checkpoint filename (``None`` if not one)."""
    name = Path(path).name
    if not name.startswith("checkpoint-") or not name.endswith(CHECKPOINT_SUFFIX):
        return None
    try:
        return int(name[len("checkpoint-") : -len(CHECKPOINT_SUFFIX)])
    except ValueError:
        return None


def engine_state(engine) -> Dict[str, Any]:
    """Capture a loaded dynamic :class:`HierarchicalEngine` as a state dict.

    ``"relations"`` holds private copies of the base relations, so the
    dict stays a consistent image of this version while the engine moves
    on; :func:`write_checkpoint` serializes them.  Duck-typed on purpose:
    this module must not import :mod:`repro.core.api` (the engine imports
    durability, not the other way around).
    """
    driver = engine._driver
    if driver is None:
        raise ValueError("only dynamic engines can be checkpointed")
    relations = [relation.copy() for relation in engine.database]
    telemetry = None
    if engine.telemetry is not None:
        telemetry = engine.telemetry.state_dict()
    return {
        "query": str(engine.query),
        "epsilon": engine.epsilon,
        "mode": engine.mode,
        "enable_rebalancing": engine.enable_rebalancing,
        "version": driver.version,
        "threshold_base": driver.threshold_base,
        "relations": relations,
        "stats": driver.stats.as_dict(),
        "telemetry": telemetry,
    }


def write_checkpoint(directory: Path, state: Dict[str, Any], fsync: bool = True) -> Path:
    """Atomically persist ``state`` as ``checkpoint-<version>.ckpt``.

    The crash sites bracket every step a real death could interrupt:
    before any byte of the temp file (``checkpoint-write``), after its
    flush but before fsync (``checkpoint-fsync``), and before the
    ``os.replace`` (``checkpoint-rename``).  The ``checkpoint-cleanup``
    site fires after the rename — a crash there leaves a valid new
    checkpoint plus not-yet-pruned old files, which recovery tolerates
    by construction.
    """
    directory = Path(directory)
    relations = [
        [
            relation.name,
            list(relation.schema),
            [[list(tup), mult] for tup, mult in relation.items()],
        ]
        for relation in state["relations"]
    ]
    data = json.dumps(
        dict(state, relations=relations), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    record = CHECKPOINT_MAGIC + _HEADER.pack(len(data), zlib.crc32(data)) + data
    final_path = directory / checkpoint_name(int(state["version"]))
    tmp_path = final_path.with_suffix(final_path.suffix + ".tmp")
    crash_point("checkpoint-write")
    with open(tmp_path, "wb") as handle:
        handle.write(record)
        handle.flush()
        crash_point("checkpoint-fsync")
        if fsync:
            os.fsync(handle.fileno())
    crash_point("checkpoint-rename")
    os.replace(tmp_path, final_path)
    if fsync:
        _fsync_directory(directory)
    crash_point("checkpoint-cleanup")
    return final_path


def load_checkpoint(path: Path) -> Dict[str, Any]:
    """Read and verify one checkpoint file; raise ``ValueError`` if invalid."""
    data = Path(path).read_bytes()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ValueError("bad checkpoint magic")
    body = data[len(CHECKPOINT_MAGIC) :]
    if len(body) < _HEADER.size:
        raise ValueError("torn checkpoint header")
    length, crc = _HEADER.unpack_from(body, 0)
    payload = body[_HEADER.size : _HEADER.size + length]
    if len(payload) < length:
        raise ValueError("torn checkpoint payload")
    if zlib.crc32(payload) != crc:
        raise ValueError("checkpoint CRC mismatch")
    state = json.loads(payload.decode("utf-8"))
    if not isinstance(state, dict) or "version" not in state:
        raise ValueError("checkpoint payload is not an engine state")
    return state


def find_checkpoints(directory: Path) -> List[Tuple[int, Path]]:
    """All checkpoint files in ``directory``, sorted oldest to newest."""
    found = []
    for path in Path(directory).glob(f"checkpoint-*{CHECKPOINT_SUFFIX}"):
        version = checkpoint_version(path)
        if version is not None:
            found.append((version, path))
    return sorted(found)


def load_newest_checkpoint(
    directory: Path,
) -> Tuple[Dict[str, Any], Path, List[str]]:
    """Load the newest checkpoint that passes verification.

    Corrupt candidates (the possible crash residue of an interrupted
    ``write_checkpoint``) are skipped with a logged warning and the next
    newest is tried.  Raises ``FileNotFoundError`` when no checkpoint in
    the directory verifies.
    """
    warnings: List[str] = []
    for version, path in reversed(find_checkpoints(directory)):
        try:
            state = load_checkpoint(path)
        except (ValueError, OSError) as exc:
            message = (
                f"{path.name}: {exc}; falling back to the previous checkpoint"
            )
            warnings.append(message)
            LOGGER.warning(message)
            continue
        return state, path, warnings
    raise FileNotFoundError(
        f"no valid checkpoint in {directory} "
        f"(tried {len(warnings)} corrupt candidate(s))"
    )


def _fsync_directory(directory: Path) -> None:
    """fsync a directory so a rename survives the metadata journal too."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
