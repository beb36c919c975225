"""Content-addressed, versioned on-disk profile store.

Layout under the store root::

    objects/<id[:2]>/<id>.json       one canonical-JSON envelope per profile
    objects/<id[:2]>/<id>.meta.json  its index entry (the sidecar)
    index.json                       checkpoint of every index entry

Every object is an envelope ``{"store_format": 1, "profile": <payload>}``
serialized as *canonical JSON* (sorted keys, minimal separators); the
profile id is the SHA-256 of those bytes, so identical profiles dedupe to
one object and any corruption is detected on read by re-hashing. The
profile payload itself is schema-versioned
(:data:`repro.core.profile_data.SCHEMA_VERSION`) and
:meth:`~repro.core.profile_data.ProfileData.from_dict` fails loudly on a
version this build cannot read.

The index carries, per profile, the query key the aggregation engine
works in — ``(workload, profiler, config_hash, tree_hash)`` — plus a few
headline numbers (elapsed, peak, copy volume, sample counts) so listing
and trend queries never have to open the objects themselves. Merged
profiles record their constituent ids in ``parents``.

Writes are atomic (temp file + ``os.replace``) and serialized by an
in-process lock; the daemon funnels all persistence through one process,
so no cross-process locking is needed.

Crash safety: the index lives in memory, ``index.json`` is its
checkpoint (:meth:`ProfileStore.flush_index`) and the sidecar every put
writes is its log. Opening a store (:meth:`ProfileStore.recover`) sweeps
leftover ``*.tmp.*`` files from interrupted writes, loads the checkpoint
if it is readable, and enters every content-verified blob it lacks — via
its sidecar, or a minimal entry derived from the payload; corrupt blobs
are moved to ``quarantine/``. :meth:`ProfileStore.put` rewrites a
corrupt existing object rather than trusting it. A
:class:`repro.faults.FaultInjector` attached as ``store.faults`` can
inject torn writes (truncated bytes land in the destination and the write
raises) to exercise exactly these paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import ScaleneConfig
from repro.core.profile_data import ProfileData
from repro.errors import StoreError

STORE_FORMAT = 1


def canonical_json(payload: Dict) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(config: Union[ScaleneConfig, Dict, None]) -> str:
    """Stable hash of a profiling configuration (part of the index key)."""
    if config is None:
        return ""
    if isinstance(config, ScaleneConfig):
        config = dataclasses.asdict(config)
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def git_tree_hash(repo_root: Union[str, Path, None] = None) -> str:
    """``HEAD^{tree}`` of the repo at ``repo_root`` ("" when unavailable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD^{tree}"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


class ProfileStore:
    """A directory of content-addressed profiles plus a metadata index."""

    def __init__(self, root: Union[str, Path], *, faults=None) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.index_path = self.root / "index.json"
        self.quarantine_dir = self.root / "quarantine"
        #: Optional :class:`repro.faults.FaultInjector`; consulted by
        #: :meth:`_atomic_write` for torn-write faults.
        self.faults = faults
        self._lock = threading.RLock()
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        #: id -> index entry, in insertion order: the index itself.
        self._index: Dict[str, Dict] = {}
        #: Entries in ``index.json`` (-1: missing or unreadable).
        self._flushed = -1
        self._flush_lock = threading.Lock()
        #: What opening the store had to heal (see :meth:`recover`).
        self.last_recovery = self.recover()

    # -- recovery --------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Sweep interrupted writes, load ``index.json``, replay the rest.

        Runs on every open; writes a checkpoint if the index file was
        missing or unreadable or a blob was entered. Returns a small
        report: ``tmp_swept`` temp files removed, ``index_rebuilt`` (0/1),
        ``objects_replayed`` blobs entered, and ``objects_quarantined``
        corrupt blobs moved aside.
        """
        with self._lock:
            swept = 0
            for tmp in self.root.rglob("*.tmp.*"):
                try:
                    tmp.unlink()
                    swept += 1
                except OSError:
                    pass
            try:
                index = json.loads(self.index_path.read_text(encoding="utf-8"))
                if index["format"] != STORE_FORMAT:
                    raise ValueError(f"index format {index['format']!r}")
                self._index = {entry["id"]: entry for entry in index["entries"]}
                self._flushed = len(self._index)
            except (OSError, ValueError, KeyError, TypeError):
                self._index, self._flushed = {}, -1
            rebuilt = int(self._flushed == -1)
            replayed, quarantined = self._replay_objects()
        self.flush_index()
        return {
            "tmp_swept": swept,
            "index_rebuilt": rebuilt,
            "objects_replayed": replayed,
            "objects_quarantined": quarantined,
        }

    def _replay_objects(self) -> Tuple[int, int]:
        """Enter every verified blob the index lacks, oldest first;
        returns ``(entered, quarantined)``."""
        entered: List[Dict] = []
        quarantined = 0
        for path in self.objects_dir.glob("*/*.json"):
            profile_id = path.stem
            if path.name.endswith(".meta.json") or profile_id in self._index:
                continue
            try:
                blob = path.read_text(encoding="utf-8")
                digest = hashlib.sha256(
                    blob.rstrip("\n").encode("utf-8")
                ).hexdigest()
                if digest != profile_id:
                    raise ValueError("content hash mismatch")
                envelope = json.loads(blob)
            except (OSError, ValueError):
                quarantined += 1
                self._quarantine(path)
                continue
            entry = self._load_sidecar(profile_id)
            if entry is None:
                entry = self._entry_from_envelope(profile_id, envelope)
            entered.append(entry)
        entered.sort(key=lambda e: (e.get("created_at", 0.0), e["id"]))
        self._index.update((entry["id"], entry) for entry in entered)
        return len(entered), quarantined

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt blob out of ``objects/`` (never delete evidence)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.name}.{n}"
        try:
            os.replace(path, target)
        except OSError:
            pass

    def _load_sidecar(self, profile_id: str) -> Optional[Dict]:
        """The ``.meta.json`` index entry for a blob, or None if unusable."""
        try:
            entry = json.loads(
                self._meta_path(profile_id).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("id") != profile_id:
            return None
        return entry

    @staticmethod
    def _entry_from_envelope(profile_id: str, envelope: Dict) -> Dict:
        """Minimal index entry for a blob with no usable sidecar.

        The query key (workload/profiler/config/tree) lives only in the
        sidecar; without one the blob is still listed — content intact,
        headline numbers recovered from the payload — just unkeyed.
        """
        profile = envelope.get("profile") or {}
        cpu = profile.get("cpu") or {}
        memory = profile.get("memory") or {}
        return {
            "id": profile_id,
            "workload": "",
            "profiler": "",
            "config_hash": "",
            "tree_hash": "",
            "mode": profile.get("mode", ""),
            "elapsed_s": profile.get("elapsed_s", 0.0),
            "cpu_samples": cpu.get("samples", 0),
            "mem_samples": memory.get("samples", 0),
            "peak_mb": memory.get("peak_mb", 0.0),
            "copy_mb": profile.get("copy_volume_mb", 0.0),
            "alloc_mb": memory.get("total_alloc_mb", 0.0),
            "leaks": len(profile.get("leaks") or []),
            "parents": [],
            "created_at": 0.0,
        }

    # -- write ----------------------------------------------------------

    def put(
        self,
        profile: ProfileData,
        *,
        workload: str = "",
        profiler: str = "scalene",
        config: Union[ScaleneConfig, Dict, None] = None,
        tree_hash: str = "",
        parents: Sequence[str] = (),
        created_at: Optional[float] = None,
    ) -> str:
        """Persist ``profile``; returns its content id (idempotent)."""
        envelope = {"store_format": STORE_FORMAT, "profile": profile.to_dict()}
        blob = canonical_json(envelope)
        profile_id = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        entry = {
            "id": profile_id,
            "workload": workload,
            "profiler": profiler,
            "config_hash": config if isinstance(config, str) else config_hash(config),
            "tree_hash": tree_hash,
            "mode": profile.mode,
            "elapsed_s": profile.elapsed,
            "cpu_samples": profile.cpu_samples,
            "mem_samples": profile.mem_samples,
            "peak_mb": profile.peak_footprint_mb,
            "copy_mb": profile.total_copy_mb,
            "alloc_mb": profile.total_alloc_mb,
            "leaks": len(profile.leaks),
            "parents": list(parents),
            "created_at": created_at if created_at is not None else time.time(),
        }
        with self._lock:
            path = self._object_path(profile_id)
            # Self-healing write: an existing-but-corrupt object (torn by
            # a crash mid-write) is rewritten, not trusted.
            if not self._object_intact(path, profile_id):
                self._atomic_write(path, blob + "\n")
            if self._load_sidecar(profile_id) is None:
                self._atomic_write(
                    self._meta_path(profile_id), json.dumps(entry, indent=2) + "\n"
                )
            self._index.setdefault(profile_id, entry)
        return profile_id

    def flush_index(self) -> None:
        """Write the index's checkpoint, ``index.json``, if it has grown
        since the last one (or the file is missing or unreadable)."""
        with self._flush_lock:
            with self._lock:
                entries = list(self._index.values())
            if len(entries) == self._flushed:
                return
            index = {"format": STORE_FORMAT, "entries": entries}
            self._atomic_write(self.index_path, json.dumps(index, indent=2) + "\n")
            self._flushed = len(entries)

    # -- read -----------------------------------------------------------

    def get(self, profile_id: str) -> ProfileData:
        """Load a profile by id (or unique id prefix), verifying content."""
        return ProfileData.from_dict(self.get_raw(profile_id)["profile"])

    def get_raw(self, profile_id: str) -> Dict:
        """The stored envelope, content-verified, as a dict."""
        profile_id = self.resolve(profile_id)
        path = self._object_path(profile_id)
        try:
            blob = path.read_text(encoding="utf-8")
        except OSError:
            raise StoreError(f"profile object {profile_id} missing from store") from None
        digest = hashlib.sha256(blob.rstrip("\n").encode("utf-8")).hexdigest()
        if digest != profile_id:
            raise StoreError(
                f"profile object {profile_id[:12]}… is corrupt "
                f"(content hashes to {digest[:12]}…)"
            )
        envelope = json.loads(blob)
        if envelope.get("store_format") != STORE_FORMAT:
            raise StoreError(
                f"unsupported store format {envelope.get('store_format')!r}; "
                f"this build reads format {STORE_FORMAT}"
            )
        return envelope

    def resolve(self, profile_id: str) -> str:
        """Expand a unique id prefix to the full id."""
        if not profile_id:
            raise StoreError("empty profile id")
        with self._lock:
            if profile_id in self._index:
                return profile_id
            matches = [pid for pid in self._index if pid.startswith(profile_id)]
        if not matches:
            raise StoreError(f"unknown profile id {profile_id!r}")
        if len(matches) > 1:
            raise StoreError(f"ambiguous profile id prefix {profile_id!r}")
        return matches[0]

    def entry(self, profile_id: str) -> Dict:
        """The index entry of a profile (a copy)."""
        profile_id = self.resolve(profile_id)
        with self._lock:
            return dict(self._index[profile_id])

    def entries(self) -> List[Dict]:
        """All index entries, insertion-ordered.

        Returns per-entry copies: callers can annotate them without
        mutating the index.
        """
        with self._lock:
            return [dict(e) for e in self._index.values()]

    def find(
        self,
        *,
        workload: Optional[str] = None,
        profiler: Optional[str] = None,
        config_hash: Optional[str] = None,
        tree_hash: Optional[str] = None,
    ) -> List[Dict]:
        """Index entries matching every given component of the key."""
        def match(entry: Dict) -> bool:
            return (
                (workload is None or entry["workload"] == workload)
                and (profiler is None or entry["profiler"] == profiler)
                and (config_hash is None or entry["config_hash"] == config_hash)
                and (tree_hash is None or entry["tree_hash"] == tree_hash)
            )

        with self._lock:
            return [dict(e) for e in self._index.values() if match(e)]

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, profile_id: str) -> bool:
        try:
            self.resolve(profile_id)
        except StoreError:
            return False
        return True

    # -- internals ------------------------------------------------------

    def _object_path(self, profile_id: str) -> Path:
        return self.objects_dir / profile_id[:2] / f"{profile_id}.json"

    def _meta_path(self, profile_id: str) -> Path:
        return self.objects_dir / profile_id[:2] / f"{profile_id}.meta.json"

    def _object_intact(self, path: Path, profile_id: str) -> bool:
        """True iff the blob exists and re-hashes to its id."""
        try:
            blob = path.read_text(encoding="utf-8")
        except OSError:
            return False
        digest = hashlib.sha256(blob.rstrip("\n").encode("utf-8")).hexdigest()
        return digest == profile_id

    def _atomic_write(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        faults = self.faults
        if faults is not None and faults.tear_write():
            # Injected crash mid-write: truncated bytes land directly in
            # the destination (no temp/replace protection) and the caller
            # sees the failure, exactly like a kill between write() calls.
            path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")
            raise StoreError(f"torn write (injected fault): {path}")
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
