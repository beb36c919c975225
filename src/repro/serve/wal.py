"""Write-ahead log for the gateway's job ledger.

The gateway answers ``POST /jobs`` with 202 *before* any shard has seen
the job, so the ledger is the only record that the job exists. PR 9 kept
that ledger in process memory — a gateway crash silently dropped every
accepted-but-unfinished job. :class:`WriteAheadLog` makes the 202
contract durable: each ledger transition is appended to an fsync'd,
checksummed log **before** the client hears about it, and a restarted
gateway replays the log to rebuild the ledger and re-dispatch the
backlog.

Format — one record per line::

    <crc32(json) hex, 8 chars> <compact-json>\n

The checksum covers the JSON body, so replay detects both bit rot and
**torn tails**: a crash (or the fault plane's torn-write injector) can
leave a half-written final record, which fails its checksum and is
dropped — every fully-written record before it survives. Replay stops at
the first invalid record; because framing is line-based, nothing after a
torn record can be attributed reliably, and the writer never leaves
garbage mid-log anyway (a failed append truncates back to the last good
offset before the next write).

Durability model — two tiers:

* **Process death** (``kill -9``): every append is written to the OS
  page cache before :meth:`append` returns (the file is opened
  unbuffered), so a SIGKILL'd gateway loses nothing. This is the
  contract the chaos suite kills processes against.
* **Power loss**: fsync is *group-committed* on a background flusher
  thread — one fsync per ``SYNC_INTERVAL_S`` while appends are dirty,
  pulled forward when ``SYNC_EVERY`` appends accumulate. Keeping fsync
  off the append path matters more than its raw cost: an inline fsync
  holds the log lock while every other accepting thread (and, on a
  saturated core, the GIL convoy) piles up behind it. ``sync=True``
  still forces an inline fsync for callers that need it.

Compaction — :meth:`checkpoint` atomically writes a snapshot of the live
ledger (temp file + rename + fsync, the same recipe as the store) and
truncates the log; recovery is then ``load_checkpoint()`` plus
``replay()`` of whatever was appended since.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import StoreError

#: Hex digits of CRC-32 guarding each record. 32 bits of checksum is
#: plenty to tell a torn tail from a valid record, and CRC is cheap
#: enough to compute on the accept hot path (a cryptographic hash
#: measurably taxes a saturated gateway for no added integrity — the
#: adversary here is a half-written line, not a forger).
_CHECKSUM_HEX = 8

#: Group commit: sync at least every 64 appends or 50 ms.
SYNC_EVERY = 64
SYNC_INTERVAL_S = 0.05


def _frame(record: Dict) -> bytes:
    """One checksummed WAL line for ``record``."""
    # No sort_keys: replay parses whatever string was checksummed, so
    # key order is free — and sorting is pure cost on the accept path.
    body = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _parse(line: bytes) -> Optional[Dict]:
    """Decode one WAL line; ``None`` if torn, truncated, or corrupt."""
    digest, sep, body = line.partition(b" ")
    if not sep or len(digest) != _CHECKSUM_HEX:
        return None
    try:
        if int(digest, 16) != zlib.crc32(body):
            return None
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog:
    """Append-only checksummed log with checkpoint + truncate compaction.

    ``faults`` is an optional :class:`repro.faults.FaultInjector`; when
    its torn-write schedule fires, :meth:`append` writes only the first
    half of the framed record (modeling a crash mid-``write``) and
    raises :class:`StoreError` — exactly like the store's
    ``_atomic_write`` — so chaos tests exercise the same failure the
    checksums exist to contain.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        faults=None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log_path = self.root / "wal.log"
        self.checkpoint_path = self.root / "checkpoint.json"
        self.faults = faults
        # Read once, so a log keeps its commit cadence for its lifetime.
        self._sync_every = SYNC_EVERY
        self._sync_interval_s = SYNC_INTERVAL_S
        self._lock = threading.Lock()
        # Unbuffered: bytes reach the OS page cache inside append(), so
        # the record survives SIGKILL without waiting for a flush.
        self._fh = open(self.log_path, "ab", buffering=0)
        self._good_offset = self._fh.tell()
        self._dirty_tail = False
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self.stats: Dict[str, int] = {
            "appends": 0,
            "append_failures": 0,
            "syncs": 0,
            "compactions": 0,
            "replayed": 0,
            "torn_records": 0,
        }
        self._since_checkpoint = 0
        self._closing = False
        self._sync_wake = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-wal-sync", daemon=True
        )
        self._flusher.start()

    # -- write path -----------------------------------------------------

    @property
    def records_since_checkpoint(self) -> int:
        with self._lock:
            return self._since_checkpoint

    def append(self, record: Dict, *, sync: Optional[bool] = None) -> int:
        """Durably append one record; returns the append count.

        The record is on the OS page cache when this returns; fsync is
        group-committed by the flusher thread unless ``sync=True``
        forces one inline. Raises :class:`StoreError` on a torn write
        (injected or real) — the log is repaired (truncated to the last
        good record) before the next append, so one torn record never
        corrupts its successors.
        """
        frame = _frame(record)
        with self._lock:
            if self._fh.closed:
                raise StoreError(f"wal is closed: {self.log_path}")
            if self._dirty_tail:
                self._fh.truncate(self._good_offset)
                self._fh.seek(self._good_offset)
                self._dirty_tail = False
            if self.faults is not None and self.faults.tear_write():
                try:
                    self._fh.write(frame[: max(1, len(frame) // 2)])
                finally:
                    self._dirty_tail = True
                    self.stats["append_failures"] += 1
                raise StoreError(f"torn write (injected fault): {self.log_path}")
            try:
                self._fh.write(frame)
            except OSError as exc:
                self._dirty_tail = True
                self.stats["append_failures"] += 1
                raise StoreError(f"wal append failed: {exc}") from None
            self._good_offset = self._fh.tell()
            self.stats["appends"] += 1
            self._since_checkpoint += 1
            self._unsynced += 1
            if sync:
                self._sync_locked(time.monotonic())
            elif self._unsynced >= self._sync_every:
                # Pull the group commit forward — but off this thread.
                self._sync_wake.set()
            return self.stats["appends"]

    def sync(self) -> None:
        """Force the group commit (fsync any unsynced appends)."""
        with self._lock:
            if self._unsynced and not self._fh.closed:
                self._sync_locked(time.monotonic())

    def _sync_locked(self, now: float) -> None:
        os.fsync(self._fh.fileno())
        self.stats["syncs"] += 1
        self._unsynced = 0
        self._last_sync = now

    def _flush_loop(self) -> None:
        """The group-commit flusher: one fsync per interval while dirty."""
        while True:
            self._sync_wake.wait(timeout=self._sync_interval_s)
            self._sync_wake.clear()
            with self._lock:
                if self._closing or self._fh.closed:
                    return
                if self._unsynced:
                    self._sync_locked(time.monotonic())

    # -- recovery -------------------------------------------------------

    def replay(self) -> List[Dict]:
        """Records appended since the last checkpoint, in append order.

        Tolerant of a torn tail: the first record that fails its
        checksum (half-written frame, bit rot, mid-record crash) and
        everything after it is dropped and counted in
        ``stats["torn_records"]``. Reading the same log twice yields the
        same list — replay never mutates the log.
        """
        try:
            blob = self.log_path.read_bytes()
        except OSError:
            return []
        records: List[Dict] = []
        torn = 0
        lines = blob.split(b"\n")
        for index, line in enumerate(lines):
            if not line:
                continue
            record = _parse(line)
            if record is None:
                # Line framing cannot resync past an invalid record:
                # a torn frame with no newline glues onto its successor.
                torn += len([l for l in lines[index:] if l])
                break
            records.append(record)
        with self._lock:
            self.stats["replayed"] += len(records)
            self.stats["torn_records"] += torn
        return records

    def load_checkpoint(self) -> Optional[Dict]:
        """The last checkpoint snapshot, or ``None``.

        A corrupt checkpoint is ignored rather than trusted — the
        checkpoint is derived state; the caller falls back to whatever
        the log still holds.
        """
        try:
            payload = json.loads(self.checkpoint_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- compaction -----------------------------------------------------

    def checkpoint(self, snapshot: Dict) -> None:
        """Atomically persist ``snapshot`` and truncate the log.

        Write ordering makes this crash-safe at every point: the
        snapshot lands via temp file + rename + fsync *before* the log
        is truncated, so a crash between the two merely replays records
        the snapshot already covers (replay application is idempotent).
        """
        blob = json.dumps(snapshot, sort_keys=True)
        tmp = self.checkpoint_path.with_suffix(".json.tmp")
        with self._lock:
            if self._fh.closed:
                raise StoreError(f"wal is closed: {self.log_path}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, blob.encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.checkpoint_path)
            # The rename must be durable *before* the log records it
            # supersedes are discarded, or power loss can persist the
            # truncate but not the rename — old checkpoint + empty log,
            # every record since the last checkpoint gone. fsync on the
            # parent directory is what commits a rename; skipped only on
            # platforms that refuse directory fsync (the kill -9 tier is
            # unaffected either way).
            try:
                dir_fd = os.open(self.root, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError:
                pass
            self._fh.truncate(0)
            self._fh.seek(0)
            self._good_offset = 0
            self._dirty_tail = False
            self._unsynced = 0
            self._since_checkpoint = 0
            self.stats["compactions"] += 1

    # -- lifecycle ------------------------------------------------------

    def size_bytes(self) -> int:
        try:
            return self.log_path.stat().st_size
        except OSError:
            return 0

    def stats_dict(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self.stats)
        stats["log_bytes"] = self.size_bytes()
        return stats

    def close(self) -> None:
        """Clean close: fsync outstanding appends, release the handle."""
        self._stop_flusher()
        with self._lock:
            if not self._fh.closed:
                if self._unsynced:
                    self._sync_locked(time.monotonic())
                self._fh.close()

    def abandon(self) -> None:
        """Crash-stop close: release the handle with **no** fsync.

        Used by the chaos harness to model ``kill -9``: whatever
        ``append`` already handed to the OS survives, anything else is
        gone — exactly the state a real SIGKILL leaves behind.
        """
        self._stop_flusher()
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def _stop_flusher(self) -> None:
        with self._lock:
            self._closing = True
        self._sync_wake.set()
        if self._flusher is not threading.current_thread():
            self._flusher.join(timeout=5)
