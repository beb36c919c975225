"""The shard plane: N profile daemons behind one consistent-hash router.

:class:`ShardPlane` boots ``shards`` :class:`~repro.serve.daemon.ProfileDaemon`
instances in one process — each with its own worker pool, its own store
partition (``<root>/shard-00``, ``shard-01``, …), and an ephemeral port —
and wires them to a shared :class:`~repro.serve.router.ShardRouter`:

* **Placement** — a job or query for ``(workload, config_hash)`` routes
  to the key's primary shard (first distinct ring owner);
* **Replication** — each daemon, on accepting a profile, synchronously
  POSTs it to the key's replica shard (second distinct owner) via
  ``/replicate``; content addressing makes the copy idempotent and the
  replica never re-replicates, so the plane holds every profile exactly
  twice (once per owner) without write amplification loops;
* **Failover** — when a shard is marked down, the router answers reads
  from the replica with ``degraded=True``; accepted jobs re-dispatch
  (see :mod:`repro.serve.frontend`).

The plane is also the chaos surface: :meth:`kill` stops a shard's
daemon mid-run exactly like a process death (its HTTP socket closes,
in-flight work is cancelled), and :meth:`revive` boots a fresh daemon
over the same store partition — recovery replays the store into the
streaming sketches, so a revived shard answers correctly immediately.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ServeError
from repro.serve.daemon import ProfileDaemon
from repro.serve.router import ShardRouter
from repro.serve.store import ProfileStore


def shard_name(index: int) -> str:
    return f"shard-{index:02d}"


class ShardPlane:
    """Owns the daemons and the router of one scale-out deployment."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        shards: int = 3,
        workers: int = 1,
    ) -> None:
        if shards < 1:
            raise ServeError(f"a shard plane needs >= 1 shard, got {shards}")
        self.root = Path(root)
        self.shard_count = shards
        self.workers = workers
        self.daemons: Dict[str, ProfileDaemon] = {}
        self.router: Optional[ShardRouter] = None
        self._started = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> ShardRouter:
        """Boot every shard, then wire the shared router; returns it."""
        if self._started:
            raise ServeError("shard plane already started")
        self._started = True
        names = [shard_name(i) for i in range(self.shard_count)]
        for name in names:
            self.daemons[name] = self._boot(name)
        self.router = ShardRouter({name: self.daemons[name].url for name in names})
        for daemon in self.daemons.values():
            daemon.router = self.router
        return self.router

    def _boot(self, name: str) -> ProfileDaemon:
        daemon = ProfileDaemon(
            ProfileStore(self.root / name),
            workers=self.workers,
            shard_name=name,
            router=self.router,  # None during initial boot; set in start()
        )
        daemon.start()
        return daemon

    def stop(self) -> None:
        errors = []
        for name, daemon in self.daemons.items():
            try:
                daemon.stop()
            except ServeError as exc:
                errors.append(f"{name}: {exc}")
        self._started = False
        if errors:
            raise ServeError("shard plane stop failures: " + "; ".join(errors))

    # -- elasticity (live resharding) -----------------------------------

    def add_shard(self) -> str:
        """Boot one more daemon and register its URL with the router.

        The new shard is **not** a ring member yet: the caller (the
        gateway's reshard driver) installs it via
        ``router.begin_epoch`` so data migration brackets the ownership
        change. Names never recycle — the next index after the highest
        ever used — so a removed shard's store partition is never
        silently adopted by a newcomer.
        """
        if not self._started or self.router is None:
            raise ServeError("start the shard plane before resharding it")
        indices = [
            int(name.split("-", 1)[1])
            for name in self.daemons
            if name.startswith("shard-")
        ]
        name = shard_name(max(indices, default=-1) + 1)
        daemon = self._boot(name)
        self.daemons[name] = daemon
        self.router.urls[name] = daemon.url
        return name

    def remove_shard(self, name: str) -> None:
        """Decommission a shard that has already left every live ring.

        Stops its daemon (cutting off any not-yet-finished jobs — the
        gateway ledger re-dispatches them) and forgets its URL. The
        store partition stays on disk; a later ``add_shard`` never
        reuses the name, so it is inert.
        """
        daemon = self._daemon(name)
        if self.router is not None:
            self.router.forget(name)  # raises while still a ring member
        daemon.stop()
        del self.daemons[name]

    # -- chaos ----------------------------------------------------------

    def kill(self, name: str) -> None:
        """Stop a shard's daemon abruptly and mark it down on the router.

        Models a shard host dying: its socket closes, queued and
        in-flight jobs are cut off. Reads for its keys fail over to
        replicas; accepted-but-unfinished jobs are the front-end
        ledger's problem (re-dispatch), not the store's.
        """
        daemon = self._daemon(name)
        daemon.stop()
        if self.router is not None:
            self.router.mark_down(name)

    def revive(self, name: str) -> ProfileDaemon:
        """Boot a fresh daemon over the killed shard's store partition.

        The store recovers (tmp sweep, index heal) and the streaming
        sketches resume from ``sketches.json`` — or rebuild from the
        store — so the shard rejoins with correct aggregates. A new
        ephemeral port means the router's URL table is updated in place.
        """
        old = self._daemon(name)
        if old._started:
            raise ServeError(f"shard {name} is still running; kill it first")
        daemon = self._boot(name)
        self.daemons[name] = daemon
        if self.router is not None:
            self.router.urls[name] = daemon.url
            self.router.mark_up(name)
        return daemon

    # -- introspection --------------------------------------------------

    def _daemon(self, name: str) -> ProfileDaemon:
        daemon = self.daemons.get(name)
        if daemon is None:
            raise ServeError(f"unknown shard {name!r}")
        return daemon

    def urls(self) -> Dict[str, str]:
        return {name: d.url for name, d in self.daemons.items()}

    def health(self) -> Dict[str, Dict]:
        """Per-shard health of the live daemons (killed shards excluded)."""
        report = {}
        for name, daemon in self.daemons.items():
            if self.router is not None and self.router.is_down(name):
                continue
            report[name] = daemon.health()
        return report

    def profile_count(self) -> int:
        """Profiles across all partitions (replicas double-count by design)."""
        return sum(len(d.store) for d in self.daemons.values())
