"""Per-shard write-ahead log: CRC-framed, append-only, torn-tail safe.

One WAL is one JSON-lines file; each line frames a single record as

    ``<crc32-hex8> <canonical-json-payload>``

where the checksum covers the exact payload bytes.  The framing buys the
two properties the durability layer is built on:

* **append is the only mutation** — a record, once written and flushed,
  is never rewritten, so the prefix of the file up to the last complete
  line is immutable history;
* **damage is detectable and local** — a torn final write (process
  killed mid-``write``), a truncated file, or a flipped byte fails the
  CRC (or the line framing) at a specific record, and everything before
  it is still trustworthy.  :func:`read_wal` therefore always returns
  the longest valid prefix plus a description of the damage, and
  :func:`repair_wal` truncates the file back to that prefix so appends
  can resume on a clean boundary.

Every append increments the ``wal.appends`` telemetry counter; replay
accounting (``wal.replayed_records``) lives with the recovery path in
:mod:`repro.stream.shards.store`.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro._util import dumps_spliced
from repro.telemetry import metrics

logger = logging.getLogger(__name__)

#: Separators of a record's canonical (compact) JSON payload.
SEPARATORS = (",", ":")


def encode_record(payload: dict, spliced: Mapping[str, str] | None = None) -> str:
    """One WAL line (no trailing newline) framing ``payload``.

    The payload is ``json.dumps(payload, separators=SEPARATORS)``.  A
    value whose compact JSON text the caller holds already can be given
    in ``spliced`` (keyed like ``payload``) and is written as that text
    (:func:`repro._util.dumps_spliced`); the line is the same.
    """
    body = dumps_spliced(payload, spliced or {}, SEPARATORS)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}"


def decode_record(line: bytes) -> dict:
    """Parse one WAL line; raises :class:`ValueError` on any damage."""
    crc_hex, sep, body = line.partition(b" ")
    if not sep or len(crc_hex) != 8:
        raise ValueError("malformed WAL frame (missing checksum prefix)")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        raise ValueError("malformed WAL frame (non-hex checksum)") from None
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        raise ValueError("WAL record failed its CRC check")
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("WAL payload is not a JSON object")
    return payload


def append_record(
    path: str | Path, payload: dict, *, fsync: bool = False, line: str | None = None
) -> None:
    """Durably append one record to the WAL at ``path``.

    ``line`` is the record's :func:`encode_record` line when the caller
    has framed it already; otherwise ``payload`` is framed here.  The
    line is written and flushed in one call; with ``fsync`` the kernel
    is also asked to reach the platter before returning (slower, but
    survives power loss as well as process death).
    """
    if line is None:
        line = encode_record(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    metrics().inc("wal.appends")


@dataclass(frozen=True)
class WalReadResult:
    """The longest valid prefix of a WAL plus damage diagnostics."""

    records: tuple[dict, ...]
    #: Byte offset of the end of the last valid record (truncation point).
    good_bytes: int
    #: Whether anything after the valid prefix was damaged or torn.
    damaged: bool = False
    issue: str | None = None


def read_wal(path: str | Path) -> WalReadResult:
    """Read every valid record from the start of the WAL.

    A missing file is an empty (undamaged) log.  Parsing stops at the
    first damaged line — a torn final write, a truncated record, or a
    corrupt byte — and reports it; records before the damage are
    returned and remain authoritative.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return WalReadResult(records=(), good_bytes=0)
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline == -1:
            return WalReadResult(
                records=tuple(records),
                good_bytes=pos,
                damaged=True,
                issue=f"torn final write: record {len(records) + 1} has no "
                f"line terminator ({len(data) - pos} trailing bytes)",
            )
        try:
            records.append(decode_record(data[pos:newline]))
        except ValueError as exc:
            return WalReadResult(
                records=tuple(records),
                good_bytes=pos,
                damaged=True,
                issue=f"record {len(records) + 1} is damaged: {exc}",
            )
        pos = newline + 1
    return WalReadResult(records=tuple(records), good_bytes=pos)


def repair_wal(path: str | Path, result: WalReadResult) -> bool:
    """Truncate a damaged WAL back to its last valid record.

    Returns whether a truncation happened.  After repair, appends
    continue on a clean line boundary and a subsequent
    :func:`read_wal` sees no damage.
    """
    if not result.damaged:
        return False
    path = Path(path)
    with open(path, "r+b") as fh:
        fh.truncate(result.good_bytes)
    logger.warning(
        "WAL %s repaired: truncated to %d bytes (%d records) — %s",
        path,
        result.good_bytes,
        len(result.records),
        result.issue,
    )
    return True
