"""Consistent-hash shard routing for the scale-out serve plane.

The shard plane partitions the profile store across N daemons. Routing
is keyed on ``(workload, config_hash)`` — the same slice the index and
``/trend`` query — so every profile of one workload/config lands on one
primary shard and aggregation never crosses shards for the common case.

:class:`HashRing` is a textbook consistent-hash ring with virtual
nodes: each shard contributes ``vnodes`` points on a 2^64 ring
(SHA-256-derived, stable across processes and Python hash seeds); a key
routes to the first point clockwise. Adding or removing one shard moves
only ~1/N of the key space — the property that makes shard counts a
deployment knob rather than a data migration.

:class:`ShardRouter` layers placement policy on the ring:

* ``primary(key)`` — the owning shard;
* ``replica(key)`` — the next *distinct* shard clockwise, which holds a
  full copy of the primary's profiles (the daemon replicates every
  accepted profile to its replica; content addressing makes replication
  idempotent);
* ``route(key)`` — primary unless it is marked down, else the replica
  with ``degraded=True``; reads served from a replica are correct
  (replication is synchronous with ingest) but may miss in-flight
  writes, which the degraded flag surfaces to callers.

Shard health is maintained by the caller (the front-end marks a shard
down on connection failure and probes it back up); the router itself
never does I/O, which keeps it trivially testable and shareable.

**Ring epochs** make membership a runtime knob instead of a boot-time
constant. :meth:`ShardRouter.begin_epoch` installs a new ring (one
shard added or removed) while keeping the previous ring alive; while
the two coexist (``migrating``), reads are served from the **union** of
old and new owners — old primary first, since only it is guaranteed
data-complete — and replication targets cover both rings, so fresh
profiles land on their future owners while a background migrator copies
history. :meth:`finalize_epoch` retires the old ring once every key's
new owners hold its data. Every epoch transition bumps a monotonic
``epoch`` counter that tags replication traffic, so a copy from a stale
ring view is detectable.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServeError

#: Virtual nodes per shard. 64 points per shard keeps the max/mean key
#: imbalance under ~15% for small N while the ring stays tiny.
DEFAULT_VNODES = 64


def _ring_hash(value: str) -> int:
    """Stable 64-bit ring position (independent of PYTHONHASHSEED)."""
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


def shard_key(workload: str, config_hash: str = "") -> str:
    """The routing key: profiles of one workload/config colocate."""
    return f"{workload}\x00{config_hash}"


class HashRing:
    """Consistent-hash ring over named shards with virtual nodes."""

    def __init__(self, shards: Sequence[str], *, vnodes: int = DEFAULT_VNODES) -> None:
        if not shards:
            raise ServeError("hash ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ServeError(f"duplicate shard names: {sorted(shards)}")
        self.vnodes = vnodes
        self.shards = list(shards)
        points: List[Tuple[int, str]] = []
        for shard in shards:
            for replica in range(vnodes):
                points.append((_ring_hash(f"{shard}#{replica}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    def owners(self, key: str) -> List[str]:
        """Distinct shards clockwise from ``key``'s ring position.

        ``owners(key)[0]`` is the primary, ``[1]`` the replica, and so
        on; the list covers every shard exactly once.
        """
        start = bisect.bisect_right(self._hashes, _ring_hash(key))
        seen: List[str] = []
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.append(shard)
                if len(seen) == len(self.shards):
                    break
        return seen

    def primary(self, key: str) -> str:
        return self.owners(key)[0]

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """Primary-ownership histogram (used by tests and /shards)."""
        counts = {shard: 0 for shard in self.shards}
        for key in keys:
            counts[self.primary(key)] += 1
        return counts


class ShardRouter:
    """Placement + failover policy over a :class:`HashRing`.

    Thread-safe: the gateway's request threads, its dispatcher, and its
    health poller all consult one router instance.
    """

    def __init__(
        self,
        shard_urls: Dict[str, str],
        *,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if not shard_urls:
            raise ServeError("router needs at least one shard url")
        self.ring = HashRing(sorted(shard_urls), vnodes=vnodes)
        self.urls = dict(shard_urls)
        self._down: set = set()
        self._lock = threading.Lock()
        #: Monotonic ring version; bumped by every begin/abort_epoch.
        self.epoch = 1
        #: The outgoing ring while a migration is in flight, else None.
        self.prev_ring: Optional[HashRing] = None

    # -- health ---------------------------------------------------------

    def mark_down(self, shard: str) -> None:
        if shard not in self.urls:
            raise ServeError(f"unknown shard {shard!r}")
        with self._lock:
            self._down.add(shard)

    def mark_up(self, shard: str) -> None:
        with self._lock:
            self._down.discard(shard)

    def is_down(self, shard: str) -> bool:
        with self._lock:
            return shard in self._down

    def down_shards(self) -> List[str]:
        with self._lock:
            return sorted(self._down)

    def live_shards(self) -> List[str]:
        with self._lock:
            return [s for s in self.ring.shards if s not in self._down]

    # -- ring epochs (live resharding) ----------------------------------

    @property
    def migrating(self) -> bool:
        with self._lock:
            return self.prev_ring is not None

    def begin_epoch(self, shards: "Sequence[str]") -> int:
        """Install a new ring membership; returns the new epoch.

        The old ring stays live (``prev_ring``) until
        :meth:`finalize_epoch`: reads fall through the union of old and
        new owners, and :meth:`replication_targets` spans both rings so
        writes accepted mid-migration reach their future owners. Every
        member must already have a URL registered (add the daemon to
        ``urls`` before it joins the ring).
        """
        members = sorted(shards)
        missing = [s for s in members if s not in self.urls]
        if missing:
            raise ServeError(f"shards without a registered url: {missing}")
        with self._lock:
            if self.prev_ring is not None:
                raise ServeError(
                    f"ring migration already in progress (epoch {self.epoch})"
                )
            if members == self.ring.shards:
                raise ServeError(f"epoch would not change membership: {members}")
            self.prev_ring = self.ring
            self.ring = HashRing(members, vnodes=self.ring.vnodes)
            self.epoch += 1
            return self.epoch

    def finalize_epoch(self) -> None:
        """Retire the outgoing ring: the new epoch now owns every key."""
        with self._lock:
            if self.prev_ring is None:
                raise ServeError("no ring migration in progress")
            self.prev_ring = None

    def abort_epoch(self) -> None:
        """Roll membership back to the outgoing ring (migration failed).

        Bumps the epoch again — an abort is a membership change too, and
        a monotonic counter is what lets epoch-tagged replication spot
        stale ring views.
        """
        with self._lock:
            if self.prev_ring is None:
                raise ServeError("no ring migration in progress")
            self.ring = self.prev_ring
            self.prev_ring = None
            self.epoch += 1

    def forget(self, shard: str) -> None:
        """Drop a decommissioned shard's URL and health state.

        Only legal once the shard is out of every live ring (after
        ``finalize_epoch`` of a removal).
        """
        with self._lock:
            rings = [self.ring] + ([self.prev_ring] if self.prev_ring else [])
            if any(shard in ring.shards for ring in rings):
                raise ServeError(f"shard {shard!r} is still a ring member")
            self.urls.pop(shard, None)
            self._down.discard(shard)

    # -- placement ------------------------------------------------------

    def primary(self, workload: str, config_hash: str = "") -> str:
        return self.ring.primary(shard_key(workload, config_hash))

    def replica(self, workload: str, config_hash: str = "") -> Optional[str]:
        owners = self.ring.owners(shard_key(workload, config_hash))
        return owners[1] if len(owners) > 1 else None

    def replica_of(self, shard: str) -> Optional[str]:
        """The shard's ring successor (display hint for ``/shards``).

        Replication is **per key**, not per shard: a profile stored on
        its primary replicates to ``owners(key)[1]``, which varies with
        the key's ring position across the primary's vnodes. This
        method only names the successor from the shard's first vnode —
        a readable summary, not the placement rule.
        """
        if len(self.ring.shards) < 2:
            return None
        owners = self.ring.owners(f"{shard}#0")
        # owners[0] is `shard` itself (its vnode hashes there).
        for candidate in owners:
            if candidate != shard:
                return candidate
        return None

    def read_owners(self, workload: str, config_hash: str = "") -> List[str]:
        """Shards that may hold the key's data, in preference order.

        Steady state this is ``ring.owners``. During a migration it is
        the union of the *old* ring's owners (first — only they are
        guaranteed data-complete) and the new ring's owners (which the
        migrator and dual replication are filling), so a read served
        from any listed shard is served from an old-or-new owner.
        """
        key = shard_key(workload, config_hash)
        with self._lock:
            prev, ring = self.prev_ring, self.ring
        if prev is None:
            return ring.owners(key)
        owners = list(prev.owners(key))
        for shard in ring.owners(key):
            if shard not in owners:
                owners.append(shard)
        return owners

    def replication_targets(
        self, workload: str, config_hash: str = "", *, source: str = ""
    ) -> List[str]:
        """Peers that must hold a copy of ``source``'s fresh profile.

        The invariant: a key's primary **and** replica hold every
        profile of that key. Steady state with ``source`` as primary
        that is just ``[replica]``; during a migration the first two
        owners of *both* rings are covered (dual-write), and a source
        that is no longer an owner at all (it was demoted or is being
        decommissioned) pushes to the full new owner pair.
        """
        key = shard_key(workload, config_hash)
        with self._lock:
            prev, ring = self.prev_ring, self.ring
        owners = ring.owners(key)[:2]
        if prev is not None:
            old = prev.owners(key)[:2]
            owners = old + [s for s in owners if s not in old]
        return [s for s in owners if s != source]

    def route(self, workload: str, config_hash: str = "") -> Tuple[str, bool]:
        """``(shard, degraded)`` for a key: primary, else live fallback.

        Fallbacks are the key's replica, then — during a ring migration
        — the incoming epoch's owners. Raises :class:`ServeError` when
        every owner of the key is down.
        """
        owners = self.read_owners(workload, config_hash)
        with self._lock:
            for index, shard in enumerate(owners):
                if shard not in self._down:
                    return shard, index > 0
        raise ServeError(
            f"no live shard for workload={workload!r} "
            f"(owners {owners}, all down)"
        )

    def url(self, shard: str) -> str:
        try:
            return self.urls[shard]
        except KeyError:
            raise ServeError(f"unknown shard {shard!r}") from None

    def describe(self) -> Dict:
        with self._lock:
            down = sorted(self._down)
            prev = self.prev_ring
            epoch = self.epoch
        leaving = (
            [s for s in prev.shards if s not in self.ring.shards] if prev else []
        )
        return {
            "shards": [
                {
                    "name": shard,
                    "url": self.urls[shard],
                    "down": shard in down,
                    "replica": self.replica_of(shard),
                }
                for shard in self.ring.shards
            ],
            "vnodes": self.ring.vnodes,
            "epoch": epoch,
            "migrating": prev is not None,
            "leaving": leaving,
        }
