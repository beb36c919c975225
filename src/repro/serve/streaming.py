"""Streaming aggregation: bounded sketches over unbounded profile history.

The serve plane's original aggregation endpoints (``/trend``, ``/merge``,
``find_regressions``) replayed stored history — O(history) reads per
request, which cannot serve a store holding millions of profiles. This
module is the bounded replacement, the same shape real Scalene uses to
keep its own statistics bounded (``RunningStats`` + reservoir sampling in
``scalene_statistics.py``):

* :class:`RunningStats` — exact count/mean/variance/min/max maintained
  incrementally (Welford) and **mergeable** (Chan et al. parallel
  update), so per-shard statistics combine into the global answer
  without revisiting any sample;
* :class:`ReservoirSample` — a fixed-capacity uniform sample of an
  unbounded stream, with a weight-preserving merge (each retained value
  still represents ``seen / capacity`` of its stream) and a seeded RNG
  so runs replay;
* :class:`LineSketch` — one profile line across runs: running stats of
  its per-run CPU share and peak footprint, a reservoir of per-run CPU
  shares, **plus exact summed absolute quantities** (CPU seconds,
  allocation MB) so the sketch-derived merged percentages recombine
  exactly the way :func:`repro.core.profile_data.merge_profiles` does;
* :class:`KeySketch` — everything the serve plane needs to answer
  ``/trend`` for one index key ``(workload, profiler, config_hash)``:
  headline running stats, a bounded window of recent trend points, and
  the per-line table of :class:`LineSketch` es;
* :class:`StreamingAggregator` — the daemon-side registry of key
  sketches, updated on every ingest (O(lines) per stored profile,
  O(window) per query) and persisted as one JSON blob next to the store.

Every sketch serializes (``to_dict`` / ``from_dict``) and merges; all
merges are associative and commutative up to float rounding (property-
tested in ``tests/test_streaming_properties.py``). Merged profiles carry
their sketch payload in the schema-v6 ``sketch`` field, so a consumer of
a merged profile can read per-line run-to-run variance without the
constituent profiles.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServeError

#: Default reservoir capacity (per line key). Big enough for stable
#: quantiles, small enough that a million-run history stays ~KBs.
RESERVOIR_CAPACITY = 64

#: Default bound on the recent-points window a KeySketch keeps for
#: ``/trend`` answers and consecutive-run regression detection.
TREND_WINDOW = 128

#: Default bound on distinct line keys tracked per index key. Profiles
#: are already filtered to their significant lines (≤300), so the union
#: across runs of one workload is naturally small; the cap is a backstop
#: against adversarial histories, counted in ``lines_dropped``.
MAX_LINE_KEYS = 4096


class RunningStats:
    """Exact streaming count/mean/variance/min/max (Welford, mergeable).

    ``push`` is O(1); ``merge`` combines two disjoint streams using the
    parallel-variance update, so the result is independent of how the
    stream was partitioned (associativity/commutativity up to float
    rounding — the property the cross-shard aggregation relies on).
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def variance(self) -> float:
        """Population variance of the stream (0 while count < 2)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def peak(self) -> float:
        """The stream maximum (0 for an empty stream, for reporting)."""
        return self.max if self.count else 0.0

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold ``other`` in (in place); returns self for chaining."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> Dict:
        # Bounds as floats, as :meth:`from_dict` reads them back, so that a
        # reloaded state serializes byte for byte as it was written.
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": float(self.min) if self.count else 0.0,
            "max": float(self.max) if self.count else 0.0,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunningStats":
        stats = cls()
        stats.count = int(payload["count"])
        stats.mean = float(payload["mean"])
        stats._m2 = float(payload["m2"])
        if stats.count:
            stats.min = float(payload["min"])
            stats.max = float(payload["max"])
        return stats


class ReservoirSample:
    """Fixed-capacity uniform sample of an unbounded stream (Algorithm R).

    ``seen`` counts every offered value, so each retained value carries
    weight ``seen / len(values)`` — the invariant the merge preserves:
    merging two reservoirs draws from their union with per-stream
    probability proportional to each stream's ``seen``, and the merged
    ``seen`` is the sum. The RNG is seeded (per line key, by the owner)
    so a replayed ingest sequence reproduces the same sample.
    """

    __slots__ = ("capacity", "seen", "values", "_rng")

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ServeError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self.values: List[float] = []
        self._rng = random.Random(seed)

    def push(self, value: float) -> None:
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.values[slot] = value

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Fold ``other`` in (in place), preserving sample weights.

        Each merged slot is drawn from self's pool with probability
        ``self.seen / (self.seen + other.seen)``, else from other's —
        i.e. the merged reservoir is a uniform draw from the union
        stream without replaying it.
        """
        if other.seen == 0:
            return self
        if self.seen == 0:
            self.seen = other.seen
            self.values = list(other.values)
            return self
        total = self.seen + other.seen
        mine, theirs = list(self.values), list(other.values)
        merged: List[float] = []
        want = min(self.capacity, len(mine) + len(theirs))
        while len(merged) < want:
            take_self = bool(mine) and (
                not theirs or self._rng.random() < self.seen / total
            )
            pool = mine if take_self else theirs
            merged.append(pool.pop(self._rng.randrange(len(pool))))
        self.values = merged
        self.seen = total
        return self

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the sample (0 for an empty one)."""
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def to_dict(self) -> Dict:
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, payload: Dict, *, seed: int = 0) -> "ReservoirSample":
        sample = cls(int(payload["capacity"]), seed=seed)
        sample.seen = int(payload["seen"])
        sample.values = [float(v) for v in payload["values"]]
        return sample


def _line_seed(filename: str, lineno: int) -> int:
    """Deterministic reservoir seed per line key (stable across runs)."""
    return (hash((filename, lineno)) ^ 0x5EED) & 0x7FFFFFFF


@dataclass
class LineSketch:
    """One source line across runs: exact sums + distributional sketch.

    The exact fields (``python_s``/``native_s``/``system_s``/
    ``malloc_mb``) are the same absolute quantities
    :func:`~repro.core.profile_data.merge_profiles` recombines, so the
    sketch-derived merged CPU share —
    ``100 * (python_s+native_s+system_s) / total_cpu_s`` — equals the
    exact-merge answer up to float rounding. The running stats and the
    reservoir add what the exact merge cannot say: how the line behaved
    *per run* (mean ± stddev, peak, quantiles) with O(1) memory.
    """

    filename: str
    lineno: int
    function: str = ""
    python_s: float = 0.0
    native_s: float = 0.0
    system_s: float = 0.0
    malloc_mb: float = 0.0
    peak_mb: float = 0.0
    cpu_percent: RunningStats = field(default_factory=RunningStats)
    peak_stats: RunningStats = field(default_factory=RunningStats)
    cpu_reservoir: Optional[ReservoirSample] = None

    def __post_init__(self) -> None:
        if self.cpu_reservoir is None:
            self.cpu_reservoir = ReservoirSample(
                seed=_line_seed(self.filename, self.lineno)
            )

    @property
    def total_s(self) -> float:
        return self.python_s + self.native_s + self.system_s

    def push(self, line, profile_total_cpu_s: float, profile_alloc_mb: float) -> None:
        """Fold one run's :class:`~repro.core.profile_data.LineReport` in."""
        self.function = self.function or line.function
        seconds = (
            lambda pct: pct / 100.0 * profile_total_cpu_s
        )
        self.python_s += seconds(line.cpu_python_percent)
        self.native_s += seconds(line.cpu_native_percent)
        self.system_s += seconds(line.cpu_system_percent)
        self.malloc_mb += line.mem_activity_percent / 100.0 * profile_alloc_mb
        self.peak_mb = max(self.peak_mb, line.mem_peak_mb)
        self.cpu_percent.push(line.cpu_total_percent)
        self.peak_stats.push(line.mem_peak_mb)
        self.cpu_reservoir.push(line.cpu_total_percent)

    def merge(self, other: "LineSketch") -> "LineSketch":
        self.function = self.function or other.function
        self.python_s += other.python_s
        self.native_s += other.native_s
        self.system_s += other.system_s
        self.malloc_mb += other.malloc_mb
        self.peak_mb = max(self.peak_mb, other.peak_mb)
        self.cpu_percent.merge(other.cpu_percent)
        self.peak_stats.merge(other.peak_stats)
        self.cpu_reservoir.merge(other.cpu_reservoir)
        return self

    def to_dict(self) -> Dict:
        return {
            "filename": self.filename,
            "lineno": self.lineno,
            "function": self.function,
            "python_s": self.python_s,
            "native_s": self.native_s,
            "system_s": self.system_s,
            "malloc_mb": self.malloc_mb,
            "peak_mb": self.peak_mb,
            "cpu_percent": self.cpu_percent.to_dict(),
            "peak_stats": self.peak_stats.to_dict(),
            "cpu_reservoir": self.cpu_reservoir.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LineSketch":
        filename = payload["filename"]
        lineno = int(payload["lineno"])
        return cls(
            filename=filename,
            lineno=lineno,
            function=payload.get("function", ""),
            python_s=float(payload["python_s"]),
            native_s=float(payload["native_s"]),
            system_s=float(payload["system_s"]),
            malloc_mb=float(payload["malloc_mb"]),
            peak_mb=float(payload["peak_mb"]),
            cpu_percent=RunningStats.from_dict(payload["cpu_percent"]),
            peak_stats=RunningStats.from_dict(payload["peak_stats"]),
            cpu_reservoir=ReservoirSample.from_dict(
                payload["cpu_reservoir"], seed=_line_seed(filename, lineno)
            ),
        )


class KeySketch:
    """Bounded streaming state for one index key.

    Ingest is O(profile lines); every query — trend points, regression
    flags, sketch-merged per-line shares — is O(window + line keys),
    independent of how many profiles the key has ever stored.
    """

    def __init__(
        self,
        *,
        window: int = TREND_WINDOW,
        max_line_keys: int = MAX_LINE_KEYS,
    ) -> None:
        self.window = window
        self.max_line_keys = max_line_keys
        self.runs = 0
        self.total_cpu_s = 0.0
        self.total_alloc_mb = 0.0
        self.elapsed = RunningStats()
        self.peak_mb = RunningStats()
        self.cpu_samples = RunningStats()
        self.lines: "OrderedDict[Tuple[str, int], LineSketch]" = OrderedDict()
        self.lines_dropped = 0
        #: Recent trend points (headline dicts), newest last.
        self.recent: deque = deque(maxlen=window)

    # -- ingest ---------------------------------------------------------

    def ingest(self, entry: Dict, profile) -> None:
        """Fold one stored profile in (``entry`` is its index entry)."""
        total_cpu = (
            profile.cpu_python_time
            + profile.cpu_native_time
            + profile.cpu_system_time
        )
        self.runs += 1
        self.total_cpu_s += total_cpu
        self.total_alloc_mb += profile.total_alloc_mb
        self.elapsed.push(profile.elapsed)
        self.peak_mb.push(profile.peak_footprint_mb)
        self.cpu_samples.push(profile.cpu_samples)
        for line in profile.lines:
            key = (line.filename, line.lineno)
            sketch = self.lines.get(key)
            if sketch is None:
                if len(self.lines) >= self.max_line_keys:
                    self.lines_dropped += 1
                    continue
                sketch = self.lines[key] = LineSketch(
                    filename=line.filename, lineno=line.lineno
                )
            sketch.push(line, total_cpu, profile.total_alloc_mb)
        self.recent.append(
            {
                "id": entry.get("id", ""),
                "workload": entry.get("workload", ""),
                "created_at": entry.get("created_at", 0.0),
                "elapsed_s": profile.elapsed,
                "peak_mb": profile.peak_footprint_mb,
                "cpu_samples": profile.cpu_samples,
                "mem_samples": profile.mem_samples,
                "degraded": profile.degraded,
            }
        )

    # -- queries --------------------------------------------------------

    def summary(self) -> Dict:
        """Headline streaming statistics (the O(1) ``/trend`` answer)."""
        return {
            "runs": self.runs,
            "elapsed_s": {
                "mean": self.elapsed.mean,
                "stddev": self.elapsed.stddev,
                "min": self.elapsed.min if self.elapsed.count else 0.0,
                "max": self.elapsed.peak,
            },
            "peak_mb": {
                "mean": self.peak_mb.mean,
                "stddev": self.peak_mb.stddev,
                "max": self.peak_mb.peak,
            },
            "cpu_samples_mean": self.cpu_samples.mean,
            "total_cpu_s": self.total_cpu_s,
            "lines_tracked": len(self.lines),
            "lines_dropped": self.lines_dropped,
            "window": len(self.recent),
        }

    def trend_points(self, limit: int = 0, offset: int = 0) -> List[Dict]:
        """The bounded recent window, oldest first (paginated)."""
        points = list(self.recent)
        if offset:
            points = points[offset:] if offset < len(points) else []
        if limit:
            points = points[:limit]
        return points

    def line_table(self, top: int = 0) -> List[Dict]:
        """Sketch-merged per-line rows, hottest first.

        ``cpu_percent`` recombines the exact summed seconds against the
        key's total CPU — the same formula the exact merge uses — so it
        matches ``merge_profiles`` of the full history up to rounding.
        """
        rows = []
        for sketch in self.lines.values():
            share = (
                100.0 * sketch.total_s / self.total_cpu_s
                if self.total_cpu_s > 0
                else 0.0
            )
            rows.append(
                {
                    "filename": sketch.filename,
                    "lineno": sketch.lineno,
                    "function": sketch.function,
                    "cpu_percent": share,
                    "cpu_percent_per_run": {
                        "mean": sketch.cpu_percent.mean,
                        "stddev": sketch.cpu_percent.stddev,
                        "p50": sketch.cpu_reservoir.quantile(0.5),
                        "p90": sketch.cpu_reservoir.quantile(0.9),
                        "runs": sketch.cpu_percent.count,
                    },
                    "peak_mb": sketch.peak_mb,
                    "malloc_mb": sketch.malloc_mb,
                }
            )
        rows.sort(key=lambda r: -r["cpu_percent"])
        return rows[:top] if top else rows

    def regressions(
        self, *, elapsed_factor: float = 1.2, peak_factor: float = 1.2
    ) -> List[Dict]:
        """Consecutive-run regressions inside the bounded window."""
        flags: List[Dict] = []
        points = list(self.recent)
        for prev, curr in zip(points, points[1:]):
            reasons = []
            if (
                prev["elapsed_s"] > 0
                and curr["elapsed_s"] > elapsed_factor * prev["elapsed_s"]
            ):
                reasons.append(
                    f"elapsed {prev['elapsed_s']:.3f}s -> {curr['elapsed_s']:.3f}s"
                )
            if (
                prev["peak_mb"] > 0
                and curr["peak_mb"] > peak_factor * prev["peak_mb"]
            ):
                reasons.append(
                    f"peak {prev['peak_mb']:.1f}MB -> {curr['peak_mb']:.1f}MB"
                )
            if reasons:
                flags.append(
                    {
                        "before": prev["id"],
                        "after": curr["id"],
                        "workload": curr["workload"],
                        "reasons": reasons,
                    }
                )
        return flags

    # -- merge / serialization ------------------------------------------

    def merge(self, other: "KeySketch") -> "KeySketch":
        """Fold another shard's sketch for the same key in (in place).

        Recent windows interleave by ``created_at`` and re-truncate to
        the window bound (newest points win), mirroring what a single
        aggregator ingesting the union stream would have kept.
        """
        self.runs += other.runs
        self.total_cpu_s += other.total_cpu_s
        self.total_alloc_mb += other.total_alloc_mb
        self.elapsed.merge(other.elapsed)
        self.peak_mb.merge(other.peak_mb)
        self.cpu_samples.merge(other.cpu_samples)
        self.lines_dropped += other.lines_dropped
        for key, sketch in other.lines.items():
            mine = self.lines.get(key)
            if mine is None:
                if len(self.lines) >= self.max_line_keys:
                    self.lines_dropped += 1
                    continue
                self.lines[key] = sketch
            else:
                mine.merge(sketch)
        combined = sorted(
            list(self.recent) + list(other.recent),
            key=lambda p: (p.get("created_at", 0.0), p.get("id", "")),
        )
        self.recent = deque(combined[-self.window:], maxlen=self.window)
        return self

    def to_dict(self) -> Dict:
        return {
            "window": self.window,
            "max_line_keys": self.max_line_keys,
            "runs": self.runs,
            "total_cpu_s": self.total_cpu_s,
            "total_alloc_mb": self.total_alloc_mb,
            "elapsed": self.elapsed.to_dict(),
            "peak_mb": self.peak_mb.to_dict(),
            "cpu_samples": self.cpu_samples.to_dict(),
            "lines_dropped": self.lines_dropped,
            "lines": [sketch.to_dict() for sketch in self.lines.values()],
            "recent": list(self.recent),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "KeySketch":
        sketch = cls(
            window=int(payload["window"]),
            max_line_keys=int(payload["max_line_keys"]),
        )
        sketch.runs = int(payload["runs"])
        sketch.total_cpu_s = float(payload["total_cpu_s"])
        sketch.total_alloc_mb = float(payload["total_alloc_mb"])
        sketch.elapsed = RunningStats.from_dict(payload["elapsed"])
        sketch.peak_mb = RunningStats.from_dict(payload["peak_mb"])
        sketch.cpu_samples = RunningStats.from_dict(payload["cpu_samples"])
        sketch.lines_dropped = int(payload["lines_dropped"])
        for entry in payload["lines"]:
            line = LineSketch.from_dict(entry)
            sketch.lines[(line.filename, line.lineno)] = line
        sketch.recent = deque(payload["recent"], maxlen=sketch.window)
        return sketch


def sketch_of_profile(profile, entry: Optional[Dict] = None) -> KeySketch:
    """A singleton :class:`KeySketch` holding exactly one profile.

    The unit of the sketch monoid: ``merge`` over singletons of N
    profiles equals one aggregator ingesting all N.
    """
    sketch = KeySketch()
    sketch.ingest(entry or {}, profile)
    return sketch


def merge_sketch_payloads(payloads: Sequence[Optional[Dict]]) -> Optional[Dict]:
    """Merge serialized sketch payloads (``None`` entries are dropped).

    Used by :func:`repro.core.profile_data.merge_profiles` to carry a
    combined sketch on the merged profile; returns ``None`` when no
    input had one.
    """
    present = [p for p in payloads if p]
    if not present:
        return None
    merged = KeySketch.from_dict(present[0])
    for payload in present[1:]:
        merged.merge(KeySketch.from_dict(payload))
    return merged.to_dict()


class StreamingAggregator:
    """The daemon-side registry: one :class:`KeySketch` per index key.

    Keys are ``(workload, profiler, config_hash)`` — the slice ``/trend``
    queries — and ingest happens exactly once per stored profile (merged
    profiles, which have parents, are excluded, matching the exact
    trend's semantics). The whole registry serializes to one JSON blob
    (:meth:`to_dict`), which the daemon checkpoints next to the store so
    a restart replays only the profiles the checkpoint has not seen.
    """

    STATE_FORMAT = 1

    def __init__(
        self,
        *,
        window: int = TREND_WINDOW,
        max_line_keys: int = MAX_LINE_KEYS,
    ) -> None:
        self.window = window
        self.max_line_keys = max_line_keys
        self._keys: Dict[Tuple[str, str, str], KeySketch] = {}
        #: Content ids already ingested (bounded: ids are 64 chars; a
        #: million ids ≈ 64 MB — acceptable for exactly-once ingest; the
        #: persisted state keeps only a recent suffix per key window).
        self._seen: set = set()
        self.ingested = 0

    @staticmethod
    def key_of(entry: Dict) -> Tuple[str, str, str]:
        return (
            entry.get("workload", ""),
            entry.get("profiler", ""),
            entry.get("config_hash", ""),
        )

    def ingest(self, entry: Dict, profile) -> bool:
        """Fold one stored profile in; False if already seen or merged."""
        profile_id = entry.get("id", "")
        if profile_id and profile_id in self._seen:
            return False
        if entry.get("parents"):
            return False  # merged profiles are aggregates, not runs
        key = self.key_of(entry)
        sketch = self._keys.get(key)
        if sketch is None:
            sketch = self._keys[key] = KeySketch(
                window=self.window, max_line_keys=self.max_line_keys
            )
        sketch.ingest(entry, profile)
        if profile_id:
            self._seen.add(profile_id)
        self.ingested += 1
        return True

    def __contains__(self, profile_id: str) -> bool:
        """True iff the profile with this content id was ingested."""
        return profile_id in self._seen

    def sketch(
        self,
        *,
        workload: Optional[str] = None,
        profiler: Optional[str] = None,
        config_hash: Optional[str] = None,
    ) -> Optional[KeySketch]:
        """The (merged) sketch for every key matching the filter.

        ``None`` filter components match anything; multiple matching
        keys merge into one combined answer (cross-shard ``/trend`` over
        a workload regardless of profiler/config).
        """
        matches = [
            sketch
            for (w, p, c), sketch in self._keys.items()
            if (workload is None or w == workload)
            and (profiler is None or p == profiler)
            and (config_hash is None or c == config_hash)
        ]
        if not matches:
            return None
        if len(matches) == 1:
            return matches[0]
        merged = KeySketch.from_dict(matches[0].to_dict())
        for sketch in matches[1:]:
            merged.merge(KeySketch.from_dict(sketch.to_dict()))
        return merged

    def keys(self) -> List[Dict]:
        return [
            {
                "workload": w,
                "profiler": p,
                "config_hash": c,
                "runs": sketch.runs,
            }
            for (w, p, c), sketch in sorted(self._keys.items())
        ]

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "format": self.STATE_FORMAT,
            "window": self.window,
            "max_line_keys": self.max_line_keys,
            "ingested": self.ingested,
            "seen": sorted(self._seen),
            "keys": [
                {
                    "workload": w,
                    "profiler": p,
                    "config_hash": c,
                    "sketch": sketch.to_dict(),
                }
                for (w, p, c), sketch in sorted(self._keys.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "StreamingAggregator":
        if (
            not isinstance(payload, dict)
            or payload.get("format") != cls.STATE_FORMAT
        ):
            raise ServeError(
                "unreadable streaming-aggregator state "
                f"(format {payload.get('format') if isinstance(payload, dict) else '?'!r})"
            )
        aggregator = cls(
            window=int(payload["window"]),
            max_line_keys=int(payload["max_line_keys"]),
        )
        aggregator.ingested = int(payload["ingested"])
        aggregator._seen = set(payload["seen"])
        for entry in payload["keys"]:
            key = (entry["workload"], entry["profiler"], entry["config_hash"])
            aggregator._keys[key] = KeySketch.from_dict(entry["sketch"])
        return aggregator
