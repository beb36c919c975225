"""Continuous-profiling service: store, aggregate, and serve profiles.

Single-run profiles are ephemeral; this package is what makes them
compound (the Scaler/datacenter-profiling observation — value grows when
profiles persist, merge across runs and processes, and stay queryable):

* :mod:`repro.serve.store` — a versioned, content-addressed on-disk
  profile store with an index keyed by
  ``(workload, profiler, config hash, git tree hash)``;
* :mod:`repro.serve.aggregate` — cross-run merging (via
  :func:`repro.core.profile_data.merge_profiles`), trends, and
  regression detection (via :mod:`repro.analysis.diffing`);
* :mod:`repro.serve.jobs` — the profiling-job model and the worker-side
  job executor;
* :mod:`repro.serve.daemon` — ``python -m repro serve``: a
  multiprocessing worker pool fed from a job queue behind a JSON API;
* :mod:`repro.serve.httpapi` — the HTTP server both the daemon and the
  gateway run: a stdlib threaded server over a ``(method, path)``
  route table, with one error-to-status mapping and one pagination;
* :mod:`repro.serve.client` — the urllib client used by
  ``python -m repro submit`` / ``repro profiles``.

The scale-out plane (``python -m repro serve --shards N``, DESIGN.md
§12) layers on top:

* :mod:`repro.serve.streaming` — bounded streaming aggregation
  (mergeable running statistics + weighted reservoir samples per line
  key) so ``/trend`` and ``/sketch`` answer in O(window), not
  O(history);
* :mod:`repro.serve.router` — consistent-hash placement of
  ``(workload, config_hash)`` keys over N shards with per-key
  read-replica failover;
* :mod:`repro.serve.shard` — boots the shard daemons and wires
  synchronous idempotent replication between them;
* :mod:`repro.serve.frontend` — the gateway: dispatch on accept,
  completions pushed over each shard's change cursor, a durable
  acceptance ledger with re-dispatch on shard death, and routed or
  fanned-out reads;
* :mod:`repro.serve.loadgen` — the submission load generator behind
  ``python -m repro loadgen`` and ``benchmarks/bench_serve_scale.py``.

The durable control plane (DESIGN.md §13) hardens the gateway itself:

* :mod:`repro.serve.wal` — the fsync'd, checksummed write-ahead log
  behind the gateway ledger: every accepted job survives ``kill -9``
  and is re-dispatched on restart, with checkpoint + truncate
  compaction bounding the log;
* ring epochs in :mod:`repro.serve.router` plus the gateway's
  ``POST /reshard`` endpoint add/remove shards at runtime, migrating
  keys in the background while reads are served from old-or-new owners.
"""

from repro.serve.aggregate import diff_stored, find_regressions, merge_stored, trend
from repro.serve.client import ServeClient
from repro.serve.daemon import ProfileDaemon
from repro.serve.frontend import ServeFrontend
from repro.serve.jobs import Job, execute_job
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.router import HashRing, ShardRouter, shard_key
from repro.serve.shard import ShardPlane
from repro.serve.store import ProfileStore, config_hash, git_tree_hash
from repro.serve.wal import WriteAheadLog
from repro.serve.streaming import (
    KeySketch,
    ReservoirSample,
    RunningStats,
    StreamingAggregator,
)

__all__ = [
    "HashRing",
    "Job",
    "KeySketch",
    "LoadReport",
    "ProfileDaemon",
    "ProfileStore",
    "ReservoirSample",
    "RunningStats",
    "ServeClient",
    "ServeFrontend",
    "ShardPlane",
    "ShardRouter",
    "StreamingAggregator",
    "WriteAheadLog",
    "config_hash",
    "diff_stored",
    "execute_job",
    "find_regressions",
    "git_tree_hash",
    "merge_stored",
    "run_load",
    "shard_key",
    "trend",
]
