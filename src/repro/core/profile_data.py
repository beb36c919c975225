"""The finished profile: Scalene's output data model (paper §5).

Built from :class:`~repro.core.stats.ScaleneStats` when profiling stops:
lines are filtered to the significant ones (≥1 % plus neighbours, ≤300),
memory timelines are reduced with RDP + downsampling to ≤100 points, and
the result renders as rich text (CLI) or JSON (the web UI payload).

Profiles also *round-trip*: :meth:`ProfileData.to_dict` emits a
schema-versioned payload and :meth:`ProfileData.from_dict` restores it
exactly (every counter, leak score, and lint finding), refusing any
other schema version. :func:`merge_profiles` combines N profiles of the
same program — concurrent workers or repeated runs — into one
statistically coherent profile (see its docstring for the semantics);
both are the foundation of the :mod:`repro.serve` profile store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import ScaleneConfig
from repro.core.filtering import significant_lines
from repro.core.leak_detector import LeakReport, leak_likelihood
from repro.core.rdp import reduce_timeline
from repro.core.stats import ScaleneStats
from repro.errors import ProfilerError, ProfileSchemaError

#: Version of the JSON payload emitted by :meth:`ProfileData.to_dict`.
#: Bump whenever the shape changes; :meth:`ProfileData.from_dict` reads
#: the current version plus the listed older ones (absent fields default)
#: and fails loudly on anything else rather than guessing.
#: v3 added the degraded-mode fields (``degraded``, ``faults``).
#: v4 added native-boundary crossing counters (per line and totals) and
#: cross-flow findings (``crossflow``).
#: v5 added the concurrency planes: per-line lock-contention counters,
#: the who-blocks-whom edge list (``locks``), per-task accounting
#: (``tasks``), and process lineage (``processes``).
#: v6 added the optional ``sketch`` payload — the serialized streaming
#: aggregate (:class:`repro.serve.streaming.KeySketch`) a merged profile
#: carries so consumers can read per-line run-to-run distributions
#: (mean/variance/quantiles) without the constituent profiles.
SCHEMA_VERSION = 6

#: Older payload versions :meth:`ProfileData.from_dict` still accepts.
#: Fields introduced later default: v2 payloads load with
#: ``degraded=False`` / no fault counters, v2/v3 with zero crossing
#: counters and no cross-flow findings, v2–v4 with zero lock counters
#: and empty task/process lists, v2–v5 with ``sketch=None``.
READABLE_SCHEMAS = frozenset({2, 3, 4, 5, SCHEMA_VERSION})


@dataclass
class LineReport:
    """One reported line (a row of the paper's Fig. 2 table)."""

    filename: str
    lineno: int
    function: str
    source: str
    cpu_python_percent: float
    cpu_native_percent: float
    cpu_system_percent: float
    mem_avg_mb: float
    mem_peak_mb: float
    mem_python_percent: float
    #: Share of the program's total allocation activity on this line
    #: (the "activity" column of the paper's Fig. 2), percent.
    mem_activity_percent: float
    timeline: List[Tuple[float, float]]
    copy_mb_s: float
    gpu_percent: float
    gpu_mem_peak_mb: float
    #: Native-boundary crossing counters (exact, from the runtime's
    #: CrossingRecorder). Absolute quantities, so merges sum them.
    crossings: int = 0
    crossing_overhead_s: float = 0.0
    crossing_native_s: float = 0.0
    bytes_to_native: int = 0
    bytes_to_python: int = 0
    #: Lock/semaphore contention counters (exact, from the runtime's
    #: LockContentionRecorder), attributed to the acquiring line.
    #: Absolute quantities, so merges sum them.
    lock_blocked_s: float = 0.0
    lock_contentions: int = 0
    lock_acquisitions: int = 0

    @property
    def cpu_total_percent(self) -> float:
        return (
            self.cpu_python_percent
            + self.cpu_native_percent
            + self.cpu_system_percent
        )


@dataclass
class FunctionReport:
    """Per-function aggregate (Scalene reports lines *and* functions)."""

    filename: str
    function: str
    cpu_python_percent: float
    cpu_native_percent: float
    cpu_system_percent: float
    malloc_mb: float
    copy_mb: float
    gpu_percent: float

    @property
    def cpu_total_percent(self) -> float:
        return (
            self.cpu_python_percent
            + self.cpu_native_percent
            + self.cpu_system_percent
        )


@dataclass
class LockEdge:
    """One who-blocks-whom edge: ``waiter`` blocked on ``lock`` held by
    ``holder`` for a cumulative ``blocked_s`` across ``count`` waits."""

    waiter: str
    holder: str
    lock: str
    blocked_s: float = 0.0
    count: int = 0

    def to_dict(self) -> Dict:
        return {
            "waiter": self.waiter,
            "holder": self.holder,
            "lock": self.lock,
            "blocked_s": self.blocked_s,
            "count": self.count,
        }


@dataclass
class TaskReport:
    """Per-task accounting for one cooperative event-loop task."""

    name: str
    cpu_s: float = 0.0
    wait_s: float = 0.0
    switches: int = 0
    #: ``file:lineno`` of the task's last await point ("" when it never
    #: awaited — the starvation signature).
    awaiting: str = ""

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "cpu_s": self.cpu_s,
            "wait_s": self.wait_s,
            "switches": self.switches,
            "awaiting": self.awaiting,
        }


@dataclass
class ProcessReport:
    """One process of the profiled tree (fork/spawn lineage)."""

    pid: int
    parent_pid: Optional[int]
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    peak_mb: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "pid": self.pid,
            "parent_pid": self.parent_pid,
            "elapsed_s": self.elapsed_s,
            "cpu_s": self.cpu_s,
            "peak_mb": self.peak_mb,
        }


@dataclass
class ProfileData:
    """Everything Scalene reports for one run."""

    mode: str
    elapsed: float
    cpu_python_time: float
    cpu_native_time: float
    cpu_system_time: float
    cpu_samples: int
    mem_samples: int
    peak_footprint_mb: float
    total_copy_mb: float
    gpu_mean_utilization: float
    gpu_mem_peak_mb: float
    lines: List[LineReport] = field(default_factory=list)
    functions: List[FunctionReport] = field(default_factory=list)
    memory_timeline: List[Tuple[float, float]] = field(default_factory=list)
    leaks: List[LeakReport] = field(default_factory=list)
    sample_log_bytes: int = 0
    #: Total allocation volume (the denominator of every line's
    #: ``mem_activity_percent`` — kept so merges can recover absolute
    #: per-line malloc volume from the percentages).
    total_alloc_mb: float = 0.0
    #: GPU sample count (the weight of ``gpu_mean_utilization`` in merges).
    gpu_samples: int = 0
    #: Triangulated static-analysis findings
    #: (:class:`repro.analysis.triangulate.TriangulatedFinding`), attached
    #: via :func:`repro.analysis.triangulate.attach_lint`; rendered by
    #: every output backend.
    lint_findings: List = field(default_factory=list)
    #: True when the run executed under injected (or detected) event-source
    #: faults: the statistics are still bounded — see
    #: :meth:`invariant_violations` — but sample counts and attributions
    #: may be perturbed. Set by :func:`repro.faults.apply_fault_counters`.
    degraded: bool = False
    #: Per-fault-family counts of the faults that fired during the run
    #: (e.g. ``{"signals_dropped": 3, "clock_jumps": 1}``); empty when the
    #: run was clean.
    fault_counters: Dict[str, int] = field(default_factory=dict)
    #: Whole-program native-boundary crossing totals (exact counts).
    total_crossings: int = 0
    total_crossing_overhead_s: float = 0.0
    total_bytes_to_native: int = 0
    total_bytes_to_python: int = 0
    #: Cross-flow findings (:class:`repro.analysis.crossflow.CrossFlowFinding`):
    #: static boundary findings joined with the measured crossing counters,
    #: attached via :func:`repro.analysis.crossflow.attach_crossflow`.
    crossflow_findings: List = field(default_factory=list)
    #: Whole-program lock/semaphore contention totals (exact counts).
    total_lock_blocked_s: float = 0.0
    total_lock_contentions: int = 0
    total_lock_acquisitions: int = 0
    #: Who-blocks-whom contention edges, sorted by blocked time.
    lock_edges: List[LockEdge] = field(default_factory=list)
    #: Per-task accounting for cooperative event-loop tasks.
    tasks: List[TaskReport] = field(default_factory=list)
    #: Process lineage (fork/spawn tree); empty for single-process runs.
    processes: List[ProcessReport] = field(default_factory=list)
    #: Serialized streaming aggregate (schema v6, optional): a
    #: :class:`repro.serve.streaming.KeySketch` payload carried by
    #: merged profiles so consumers can read per-line run-to-run
    #: distributions without the constituent profiles. ``None`` for
    #: single-run profiles and anything loaded from schema ≤ 5.
    sketch: Optional[Dict] = None

    # -- rendering -------------------------------------------------------

    #: Valid sort keys for :meth:`render_text` (Fig. 2's sortable columns).
    SORT_KEYS = {
        "line": lambda l: (l.filename, l.lineno),
        "cpu": lambda l: -l.cpu_total_percent,
        "memory": lambda l: -l.mem_peak_mb,
        "copy": lambda l: -l.copy_mb_s,
        "gpu": lambda l: -l.gpu_percent,
    }

    def render_text(self, max_width: int = 100, sort_by: str = "line") -> str:
        """Rich-text-style CLI report.

        ``sort_by`` mirrors the web UI's sortable column headers:
        ``line`` (default), ``cpu``, ``memory``, ``copy``, or ``gpu``.
        """
        key = self.SORT_KEYS.get(sort_by)
        if key is None:
            raise ValueError(
                f"unknown sort_by {sort_by!r}; use one of {sorted(self.SORT_KEYS)}"
            )
        out: List[str] = []
        total = self.cpu_python_time + self.cpu_native_time + self.cpu_system_time
        out.append(f"Scalene profile [{self.mode}] — elapsed {self.elapsed:.2f}s "
                   f"(CPU samples: {self.cpu_samples}, memory samples: {self.mem_samples})")
        if self.degraded:
            counters = ", ".join(
                f"{name}={count}" for name, count in sorted(self.fault_counters.items())
            )
            out.append(
                f"  DEGRADED run — event-source faults observed: "
                f"{counters or 'none recorded'}"
            )
        if total > 0:
            out.append(
                f"  time: {100 * self.cpu_python_time / total:.0f}% Python | "
                f"{100 * self.cpu_native_time / total:.0f}% native | "
                f"{100 * self.cpu_system_time / total:.0f}% system"
            )
        if self.mem_samples:
            out.append(f"  peak memory: {self.peak_footprint_mb:.1f} MB | "
                       f"copy volume: {self.total_copy_mb:.1f} MB")
        if self.gpu_mean_utilization > 0:
            out.append(f"  GPU: {100 * self.gpu_mean_utilization:.0f}% util | "
                       f"peak {self.gpu_mem_peak_mb:.1f} MB")
        header = (
            f"{'line':>5} {'py%':>5} {'nat%':>5} {'sys%':>5} "
            f"{'avgMB':>7} {'pkMB':>7} {'cp MB/s':>8} {'gpu%':>5}  source"
        )
        out.append(header)
        out.append("-" * min(len(header) + 20, max_width))
        for line in sorted(self.lines, key=key):
            src = line.source[: max_width - 60]
            out.append(
                f"{line.lineno:>5} {line.cpu_python_percent:>5.1f} "
                f"{line.cpu_native_percent:>5.1f} {line.cpu_system_percent:>5.1f} "
                f"{line.mem_avg_mb:>7.1f} {line.mem_peak_mb:>7.1f} "
                f"{line.copy_mb_s:>8.2f} {100 * line.gpu_percent:>5.1f}  {src}"
            )
        hot_functions = [f for f in self.functions if f.cpu_total_percent >= 1.0]
        if hot_functions:
            out.append("")
            out.append(f"{'function':<22} {'py%':>5} {'nat%':>5} {'sys%':>5} "
                       f"{'allocMB':>8} {'gpu%':>5}")
            for fn in hot_functions:
                out.append(
                    f"{fn.function:<22} {fn.cpu_python_percent:>5.1f} "
                    f"{fn.cpu_native_percent:>5.1f} {fn.cpu_system_percent:>5.1f} "
                    f"{fn.malloc_mb:>8.1f} {100 * fn.gpu_percent:>5.1f}"
                )
        if self.leaks:
            out.append("")
            out.append("Possible memory leaks (likelihood ≥ 95%):")
            for leak in self.leaks:
                out.append(f"  {leak}")
        if self.lint_findings:
            active = [t for t in self.lint_findings if not t.suppressed]
            suppressed = [t for t in self.lint_findings if t.suppressed]
            out.append("")
            out.append("Performance lints (static analysis × profile):")
            for rank, t in enumerate(active, start=1):
                out.append(
                    f"  #{rank} line {t.finding.lineno:>4} [{t.finding.detector}] "
                    f"{t.score:5.1f}% measured — {t.finding.message}"
                )
                out.append(f"       fix: {t.finding.suggestion}")
            if suppressed:
                out.append(
                    f"  ({len(suppressed)} finding(s) suppressed: "
                    f"lines below the significance threshold)"
                )
        if self.total_crossings > 0:
            out.append("")
            out.append(
                f"Native boundary: {self.total_crossings} crossings | "
                f"overhead {self.total_crossing_overhead_s * 1000:.1f} ms | "
                f"converted {self.total_bytes_to_native / 1e6:.2f} MB → native, "
                f"{self.total_bytes_to_python / 1e6:.2f} MB → Python"
            )
            chatty = [
                line
                for line in sorted(self.lines, key=lambda l: -l.crossings)
                if line.crossings > 0
            ][:5]
            for line in chatty:
                out.append(
                    f"  line {line.lineno:>4}: {line.crossings} crossings, "
                    f"overhead {line.crossing_overhead_s * 1000:.1f} ms, "
                    f"native {line.crossing_native_s * 1000:.1f} ms"
                )
        if self.crossflow_findings:
            out.append("")
            out.append("Cross-flow findings (boundary lints × measured crossings):")
            for rank, f in enumerate(self.crossflow_findings, start=1):
                out.append(
                    f"  #{rank} line {f.lineno:>4} [{f.detector}] "
                    f"{f.crossings} crossings"
                    + (
                        f" ({f.crossings_per_iteration:.1f}/iteration)"
                        if f.crossings_per_iteration > 0
                        else ""
                    )
                    + f", overhead {f.overhead_share_percent:.0f}% of line time "
                    f"— {f.message}"
                )
                out.append(f"       fix: {f.suggestion}")
                if f.estimated_savings_s > 0:
                    out.append(
                        f"       estimated savings if batched: "
                        f"{f.estimated_savings_s * 1000:.1f} ms"
                    )
        if self.total_lock_contentions > 0 or self.total_lock_blocked_s > 0:
            out.append("")
            out.append(
                f"Lock contention: {self.total_lock_blocked_s * 1000:.1f} ms "
                f"blocked | {self.total_lock_contentions} contended / "
                f"{self.total_lock_acquisitions} acquisitions"
            )
            contended = [
                line
                for line in sorted(self.lines, key=lambda l: -l.lock_blocked_s)
                if line.lock_contentions > 0
            ][:5]
            for line in contended:
                out.append(
                    f"  line {line.lineno:>4}: blocked "
                    f"{line.lock_blocked_s * 1000:.1f} ms over "
                    f"{line.lock_contentions} waits "
                    f"({line.lock_acquisitions} acquisitions)"
                )
            for edge in sorted(self.lock_edges, key=lambda e: -e.blocked_s)[:5]:
                out.append(
                    f"  {edge.waiter} blocked by {edge.holder} on "
                    f"{edge.lock!r}: {edge.blocked_s * 1000:.1f} ms "
                    f"({edge.count}x)"
                )
        if self.tasks:
            out.append("")
            out.append(f"Async tasks ({len(self.tasks)}):")
            for task in sorted(self.tasks, key=lambda t: -t.cpu_s):
                awaiting = f" @ {task.awaiting}" if task.awaiting else " (never awaited)"
                out.append(
                    f"  {task.name:<22} cpu {task.cpu_s * 1000:8.1f} ms | "
                    f"idle {task.wait_s * 1000:8.1f} ms | "
                    f"{task.switches} switches{awaiting}"
                )
        if self.processes:
            out.append("")
            out.append(f"Process tree ({len(self.processes)} processes):")
            for proc in sorted(self.processes, key=lambda p: p.pid):
                parent = (
                    f"parent {proc.parent_pid}" if proc.parent_pid is not None else "root"
                )
                out.append(
                    f"  pid {proc.pid:>5} ({parent}): elapsed "
                    f"{proc.elapsed_s:.3f}s | cpu {proc.cpu_s:.3f}s | "
                    f"peak {proc.peak_mb:.1f} MB"
                )
        return "\n".join(out)

    def to_dict(self) -> Dict:
        """JSON-ready payload (what the web UI consumes).

        The payload is schema-versioned and complete: every counter needed
        to rebuild an identical :class:`ProfileData` via :meth:`from_dict`
        is present.
        """
        return {
            "schema": SCHEMA_VERSION,
            "mode": self.mode,
            "degraded": self.degraded,
            "faults": dict(self.fault_counters),
            "elapsed_s": self.elapsed,
            "cpu": {
                "python_s": self.cpu_python_time,
                "native_s": self.cpu_native_time,
                "system_s": self.cpu_system_time,
                "samples": self.cpu_samples,
            },
            "memory": {
                "samples": self.mem_samples,
                "peak_mb": self.peak_footprint_mb,
                "total_alloc_mb": self.total_alloc_mb,
                "timeline": self.memory_timeline,
                "sample_log_bytes": self.sample_log_bytes,
            },
            "copy_volume_mb": self.total_copy_mb,
            "gpu": {
                "mean_utilization": self.gpu_mean_utilization,
                "peak_mb": self.gpu_mem_peak_mb,
                "samples": self.gpu_samples,
            },
            "crossings": {
                "total": self.total_crossings,
                "overhead_s": self.total_crossing_overhead_s,
                "bytes_to_native": self.total_bytes_to_native,
                "bytes_to_python": self.total_bytes_to_python,
            },
            "crossflow": [f.to_dict() for f in self.crossflow_findings],
            "locks": {
                "blocked_s": self.total_lock_blocked_s,
                "contentions": self.total_lock_contentions,
                "acquisitions": self.total_lock_acquisitions,
                "edges": [edge.to_dict() for edge in self.lock_edges],
            },
            "tasks": [task.to_dict() for task in self.tasks],
            "processes": [proc.to_dict() for proc in self.processes],
            "sketch": self.sketch,
            "lint": [t.to_dict() for t in self.lint_findings],
            "leaks": [
                {
                    "filename": leak.filename,
                    "lineno": leak.lineno,
                    "function": leak.function,
                    "likelihood": leak.likelihood,
                    "leak_rate_mb_s": leak.leak_rate_mb_s,
                    "mallocs": leak.mallocs,
                    "frees": leak.frees,
                }
                for leak in self.leaks
            ],
            "functions": [
                {
                    "filename": fn.filename,
                    "function": fn.function,
                    "cpu_python_percent": fn.cpu_python_percent,
                    "cpu_native_percent": fn.cpu_native_percent,
                    "cpu_system_percent": fn.cpu_system_percent,
                    "malloc_mb": fn.malloc_mb,
                    "copy_mb": fn.copy_mb,
                    "gpu_percent": fn.gpu_percent,
                }
                for fn in self.functions
            ],
            "lines": [
                {
                    "filename": line.filename,
                    "lineno": line.lineno,
                    "function": line.function,
                    "source": line.source,
                    "cpu_python_percent": line.cpu_python_percent,
                    "cpu_native_percent": line.cpu_native_percent,
                    "cpu_system_percent": line.cpu_system_percent,
                    "mem_avg_mb": line.mem_avg_mb,
                    "mem_peak_mb": line.mem_peak_mb,
                    "mem_python_percent": line.mem_python_percent,
                    "mem_activity_percent": line.mem_activity_percent,
                    "timeline": line.timeline,
                    "copy_mb_s": line.copy_mb_s,
                    "gpu_percent": line.gpu_percent,
                    "gpu_mem_peak_mb": line.gpu_mem_peak_mb,
                    "crossings": line.crossings,
                    "crossing_overhead_s": line.crossing_overhead_s,
                    "crossing_native_s": line.crossing_native_s,
                    "bytes_to_native": line.bytes_to_native,
                    "bytes_to_python": line.bytes_to_python,
                    "lock_blocked_s": line.lock_blocked_s,
                    "lock_contentions": line.lock_contentions,
                    "lock_acquisitions": line.lock_acquisitions,
                }
                for line in self.lines
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- deserialization -------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict) -> "ProfileData":
        """Rebuild a profile from a :meth:`to_dict` payload, exactly.

        Accepts the current schema plus the older versions listed in
        ``READABLE_SCHEMAS`` (fields added since then default). Raises
        :class:`~repro.errors.ProfileSchemaError` when the payload is not
        a dict, carries any other schema version, or is missing required
        keys — a misread profile must never silently enter a merge or a
        trend.
        """
        if not isinstance(payload, dict):
            raise ProfileSchemaError(
                f"profile payload must be a dict, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema not in READABLE_SCHEMAS:
            raise ProfileSchemaError(
                f"unsupported profile schema {schema!r}; "
                f"this build reads schemas {sorted(READABLE_SCHEMAS)}"
            )
        crossings = payload.get("crossings", {})
        # v2-v4 predate the concurrency planes.
        locks = payload.get("locks", {})
        try:
            cpu = payload["cpu"]
            memory = payload["memory"]
            gpu = payload["gpu"]
            profile = cls(
                mode=payload["mode"],
                # v2 predates degraded-mode accounting.
                degraded=payload["degraded"] if schema >= 3 else False,
                fault_counters=dict(payload["faults"]) if schema >= 3 else {},
                # v2/v3 predate crossing counters (the .get defaults above
                # and the per-line .get defaults below cover them).
                total_crossings=crossings.get("total", 0),
                total_crossing_overhead_s=crossings.get("overhead_s", 0.0),
                total_bytes_to_native=crossings.get("bytes_to_native", 0),
                total_bytes_to_python=crossings.get("bytes_to_python", 0),
                crossflow_findings=[
                    _crossflow_from_dict(entry)
                    for entry in payload.get("crossflow", [])
                ],
                total_lock_blocked_s=locks.get("blocked_s", 0.0),
                total_lock_contentions=locks.get("contentions", 0),
                total_lock_acquisitions=locks.get("acquisitions", 0),
                lock_edges=[
                    LockEdge(
                        waiter=entry["waiter"],
                        holder=entry["holder"],
                        lock=entry["lock"],
                        blocked_s=entry["blocked_s"],
                        count=entry["count"],
                    )
                    for entry in locks.get("edges", [])
                ],
                tasks=[
                    TaskReport(
                        name=entry["name"],
                        cpu_s=entry["cpu_s"],
                        wait_s=entry["wait_s"],
                        switches=entry["switches"],
                        awaiting=entry["awaiting"],
                    )
                    for entry in payload.get("tasks", [])
                ],
                processes=[
                    ProcessReport(
                        pid=entry["pid"],
                        parent_pid=entry["parent_pid"],
                        elapsed_s=entry["elapsed_s"],
                        cpu_s=entry["cpu_s"],
                        peak_mb=entry["peak_mb"],
                    )
                    for entry in payload.get("processes", [])
                ],
                # v2–v5 predate the streaming-aggregate payload.
                sketch=payload.get("sketch"),
                elapsed=payload["elapsed_s"],
                cpu_python_time=cpu["python_s"],
                cpu_native_time=cpu["native_s"],
                cpu_system_time=cpu["system_s"],
                cpu_samples=cpu["samples"],
                mem_samples=memory["samples"],
                peak_footprint_mb=memory["peak_mb"],
                total_copy_mb=payload["copy_volume_mb"],
                gpu_mean_utilization=gpu["mean_utilization"],
                gpu_mem_peak_mb=gpu["peak_mb"],
                sample_log_bytes=memory["sample_log_bytes"],
                total_alloc_mb=memory["total_alloc_mb"],
                gpu_samples=gpu["samples"],
                memory_timeline=_as_timeline(memory["timeline"]),
                lines=[
                    LineReport(
                        filename=entry["filename"],
                        lineno=entry["lineno"],
                        function=entry["function"],
                        source=entry["source"],
                        cpu_python_percent=entry["cpu_python_percent"],
                        cpu_native_percent=entry["cpu_native_percent"],
                        cpu_system_percent=entry["cpu_system_percent"],
                        mem_avg_mb=entry["mem_avg_mb"],
                        mem_peak_mb=entry["mem_peak_mb"],
                        mem_python_percent=entry["mem_python_percent"],
                        mem_activity_percent=entry["mem_activity_percent"],
                        timeline=_as_timeline(entry["timeline"]),
                        copy_mb_s=entry["copy_mb_s"],
                        gpu_percent=entry["gpu_percent"],
                        gpu_mem_peak_mb=entry["gpu_mem_peak_mb"],
                        crossings=entry.get("crossings", 0),
                        crossing_overhead_s=entry.get("crossing_overhead_s", 0.0),
                        crossing_native_s=entry.get("crossing_native_s", 0.0),
                        bytes_to_native=entry.get("bytes_to_native", 0),
                        bytes_to_python=entry.get("bytes_to_python", 0),
                        lock_blocked_s=entry.get("lock_blocked_s", 0.0),
                        lock_contentions=entry.get("lock_contentions", 0),
                        lock_acquisitions=entry.get("lock_acquisitions", 0),
                    )
                    for entry in payload["lines"]
                ],
                functions=[
                    FunctionReport(
                        filename=entry["filename"],
                        function=entry["function"],
                        cpu_python_percent=entry["cpu_python_percent"],
                        cpu_native_percent=entry["cpu_native_percent"],
                        cpu_system_percent=entry["cpu_system_percent"],
                        malloc_mb=entry["malloc_mb"],
                        copy_mb=entry["copy_mb"],
                        gpu_percent=entry["gpu_percent"],
                    )
                    for entry in payload["functions"]
                ],
                leaks=[
                    LeakReport(
                        filename=entry["filename"],
                        lineno=entry["lineno"],
                        function=entry["function"],
                        likelihood=entry["likelihood"],
                        leak_rate_mb_s=entry["leak_rate_mb_s"],
                        mallocs=entry["mallocs"],
                        frees=entry["frees"],
                    )
                    for entry in payload["leaks"]
                ],
                lint_findings=[_lint_from_dict(entry) for entry in payload["lint"]],
            )
        except KeyError as exc:
            raise ProfileSchemaError(
                f"profile payload (schema {schema}) is missing key {exc}"
            ) from None
        return profile

    @classmethod
    def from_json(cls, text: str) -> "ProfileData":
        """Parse :meth:`to_json` output back into a :class:`ProfileData`."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProfileSchemaError(f"profile is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    # -- lookups used by tests and benchmarks -----------------------------------

    def line(self, lineno: int, filename: Optional[str] = None) -> Optional[LineReport]:
        for entry in self.lines:
            if entry.lineno == lineno and (filename is None or entry.filename == filename):
                return entry
        return None

    def function(self, name: str) -> Optional[FunctionReport]:
        for entry in self.functions:
            if entry.function == name:
                return entry
        return None

    # -- bounded invariants (the degraded-mode contract) -------------------

    def invariant_violations(self) -> List[str]:
        """The bounded invariants every profile — degraded or not — obeys.

        Returns human-readable violation strings (empty when the profile
        is well-formed):

        * no CPU time, sample count, footprint, copy/alloc volume, or
          fault counter is negative;
        * each line's three CPU percentages are in [0, 100] and sum to
          ≤ 100 (within float tolerance);
        * memory share/activity percentages are in [0, 100];
        * leak likelihoods and GPU utilizations are in [0, 1].
        """
        violations: List[str] = []
        eps = 1e-6

        def check_nonneg(name: str, value) -> None:
            if value < 0:
                violations.append(f"{name} is negative: {value!r}")

        check_nonneg("elapsed", self.elapsed)
        check_nonneg("cpu_python_time", self.cpu_python_time)
        check_nonneg("cpu_native_time", self.cpu_native_time)
        check_nonneg("cpu_system_time", self.cpu_system_time)
        check_nonneg("cpu_samples", self.cpu_samples)
        check_nonneg("mem_samples", self.mem_samples)
        check_nonneg("peak_footprint_mb", self.peak_footprint_mb)
        check_nonneg("total_copy_mb", self.total_copy_mb)
        check_nonneg("total_alloc_mb", self.total_alloc_mb)
        check_nonneg("sample_log_bytes", self.sample_log_bytes)
        check_nonneg("total_crossings", self.total_crossings)
        check_nonneg("total_crossing_overhead_s", self.total_crossing_overhead_s)
        check_nonneg("total_bytes_to_native", self.total_bytes_to_native)
        check_nonneg("total_bytes_to_python", self.total_bytes_to_python)
        check_nonneg("total_lock_blocked_s", self.total_lock_blocked_s)
        check_nonneg("total_lock_contentions", self.total_lock_contentions)
        check_nonneg("total_lock_acquisitions", self.total_lock_acquisitions)
        for edge in self.lock_edges:
            where = f"lock edge {edge.waiter}->{edge.holder} on {edge.lock}"
            check_nonneg(f"{where} blocked_s", edge.blocked_s)
            check_nonneg(f"{where} count", edge.count)
        for task in self.tasks:
            check_nonneg(f"task {task.name} cpu_s", task.cpu_s)
            check_nonneg(f"task {task.name} wait_s", task.wait_s)
            check_nonneg(f"task {task.name} switches", task.switches)
        for proc in self.processes:
            check_nonneg(f"process {proc.pid} elapsed_s", proc.elapsed_s)
            check_nonneg(f"process {proc.pid} cpu_s", proc.cpu_s)
            check_nonneg(f"process {proc.pid} peak_mb", proc.peak_mb)
        if not 0.0 <= self.gpu_mean_utilization <= 1.0 + eps:
            violations.append(
                f"gpu_mean_utilization outside [0, 1]: {self.gpu_mean_utilization!r}"
            )
        for name, count in self.fault_counters.items():
            check_nonneg(f"fault counter {name!r}", count)
        for line in self.lines:
            where = f"line {line.filename}:{line.lineno}"
            for col in (
                "cpu_python_percent",
                "cpu_native_percent",
                "cpu_system_percent",
                "mem_python_percent",
                "mem_activity_percent",
            ):
                value = getattr(line, col)
                if not 0.0 <= value <= 100.0 + eps:
                    violations.append(f"{where} {col} outside [0, 100]: {value!r}")
            if line.cpu_total_percent > 100.0 + eps:
                violations.append(
                    f"{where} CPU percentages sum to "
                    f"{line.cpu_total_percent:.4f} > 100"
                )
            check_nonneg(f"{where} mem_avg_mb", line.mem_avg_mb)
            check_nonneg(f"{where} mem_peak_mb", line.mem_peak_mb)
            check_nonneg(f"{where} copy_mb_s", line.copy_mb_s)
            check_nonneg(f"{where} gpu_mem_peak_mb", line.gpu_mem_peak_mb)
            check_nonneg(f"{where} crossings", line.crossings)
            check_nonneg(f"{where} crossing_overhead_s", line.crossing_overhead_s)
            check_nonneg(f"{where} crossing_native_s", line.crossing_native_s)
            check_nonneg(f"{where} bytes_to_native", line.bytes_to_native)
            check_nonneg(f"{where} bytes_to_python", line.bytes_to_python)
            check_nonneg(f"{where} lock_blocked_s", line.lock_blocked_s)
            check_nonneg(f"{where} lock_contentions", line.lock_contentions)
            check_nonneg(f"{where} lock_acquisitions", line.lock_acquisitions)
            if not 0.0 <= line.gpu_percent <= 1.0 + eps:
                violations.append(
                    f"{where} gpu_percent outside [0, 1]: {line.gpu_percent!r}"
                )
        for leak in self.leaks:
            where = f"leak {leak.filename}:{leak.lineno}"
            if not 0.0 <= leak.likelihood <= 1.0 + eps:
                violations.append(
                    f"{where} likelihood outside [0, 1]: {leak.likelihood!r}"
                )
            check_nonneg(f"{where} leak_rate_mb_s", leak.leak_rate_mb_s)
            check_nonneg(f"{where} mallocs", leak.mallocs)
            check_nonneg(f"{where} frees", leak.frees)
        return violations

    def clamp_bounded(self) -> "ProfileData":
        """Force the bounded invariants to hold, in place.

        Used on degraded profiles: injected event-source faults may
        perturb sample counts and attribution, but the published numbers
        must still be *bounded* — negatives clamp to zero, percentages to
        [0, 100] (a line's three CPU percentages are rescaled
        proportionally if their sum exceeds 100), likelihoods and GPU
        utilizations to [0, 1]. Returns ``self`` for chaining.
        """
        clamp01 = lambda v: min(max(v, 0.0), 1.0)
        self.elapsed = max(self.elapsed, 0.0)
        self.cpu_python_time = max(self.cpu_python_time, 0.0)
        self.cpu_native_time = max(self.cpu_native_time, 0.0)
        self.cpu_system_time = max(self.cpu_system_time, 0.0)
        self.cpu_samples = max(self.cpu_samples, 0)
        self.mem_samples = max(self.mem_samples, 0)
        self.peak_footprint_mb = max(self.peak_footprint_mb, 0.0)
        self.total_copy_mb = max(self.total_copy_mb, 0.0)
        self.total_alloc_mb = max(self.total_alloc_mb, 0.0)
        self.sample_log_bytes = max(self.sample_log_bytes, 0)
        self.gpu_mean_utilization = clamp01(self.gpu_mean_utilization)
        self.gpu_mem_peak_mb = max(self.gpu_mem_peak_mb, 0.0)
        self.total_crossings = max(self.total_crossings, 0)
        self.total_crossing_overhead_s = max(self.total_crossing_overhead_s, 0.0)
        self.total_bytes_to_native = max(self.total_bytes_to_native, 0)
        self.total_bytes_to_python = max(self.total_bytes_to_python, 0)
        self.total_lock_blocked_s = max(self.total_lock_blocked_s, 0.0)
        self.total_lock_contentions = max(self.total_lock_contentions, 0)
        self.total_lock_acquisitions = max(self.total_lock_acquisitions, 0)
        for edge in self.lock_edges:
            edge.blocked_s = max(edge.blocked_s, 0.0)
            edge.count = max(edge.count, 0)
        for task in self.tasks:
            task.cpu_s = max(task.cpu_s, 0.0)
            task.wait_s = max(task.wait_s, 0.0)
            task.switches = max(task.switches, 0)
        for proc in self.processes:
            proc.elapsed_s = max(proc.elapsed_s, 0.0)
            proc.cpu_s = max(proc.cpu_s, 0.0)
            proc.peak_mb = max(proc.peak_mb, 0.0)
        for name in list(self.fault_counters):
            self.fault_counters[name] = max(self.fault_counters[name], 0)
        for line in self.lines:
            line.cpu_python_percent = min(max(line.cpu_python_percent, 0.0), 100.0)
            line.cpu_native_percent = min(max(line.cpu_native_percent, 0.0), 100.0)
            line.cpu_system_percent = min(max(line.cpu_system_percent, 0.0), 100.0)
            total = line.cpu_total_percent
            if total > 100.0:
                scale = 100.0 / total
                line.cpu_python_percent *= scale
                line.cpu_native_percent *= scale
                line.cpu_system_percent *= scale
            line.mem_python_percent = min(max(line.mem_python_percent, 0.0), 100.0)
            line.mem_activity_percent = min(max(line.mem_activity_percent, 0.0), 100.0)
            line.mem_avg_mb = max(line.mem_avg_mb, 0.0)
            line.mem_peak_mb = max(line.mem_peak_mb, 0.0)
            line.copy_mb_s = max(line.copy_mb_s, 0.0)
            line.gpu_percent = clamp01(line.gpu_percent)
            line.gpu_mem_peak_mb = max(line.gpu_mem_peak_mb, 0.0)
            line.crossings = max(line.crossings, 0)
            line.crossing_overhead_s = max(line.crossing_overhead_s, 0.0)
            line.crossing_native_s = max(line.crossing_native_s, 0.0)
            line.bytes_to_native = max(line.bytes_to_native, 0)
            line.bytes_to_python = max(line.bytes_to_python, 0)
            line.lock_blocked_s = max(line.lock_blocked_s, 0.0)
            line.lock_contentions = max(line.lock_contentions, 0)
            line.lock_acquisitions = max(line.lock_acquisitions, 0)
        for leak in self.leaks:
            leak.likelihood = clamp01(leak.likelihood)
            leak.leak_rate_mb_s = max(leak.leak_rate_mb_s, 0.0)
            leak.mallocs = max(leak.mallocs, 0)
            leak.frees = max(leak.frees, 0)
        return self


def build_profile(
    stats: ScaleneStats,
    config: ScaleneConfig,
    *,
    source_lines: Dict[str, List[str]],
    leaks: List[LeakReport],
    sample_log_bytes: int = 0,
) -> ProfileData:
    """Assemble the final :class:`ProfileData` from raw statistics."""
    elapsed = stats.elapsed
    total_cpu = stats.total_cpu_time
    keys = significant_lines(
        stats.lines,
        total_cpu,
        stats.total_alloc_mb,
        min_percent=config.report_min_percent,
        max_lines=config.report_max_lines,
    )
    line_reports: List[LineReport] = []
    for filename, lineno in keys:
        stats_line = stats.lines.get((filename, lineno))
        lines_of_file = source_lines.get(filename, [])
        source = (
            lines_of_file[lineno - 1] if 1 <= lineno <= len(lines_of_file) else ""
        )
        if stats_line is None:
            # A context neighbour with no samples of its own.
            line_reports.append(
                LineReport(
                    filename=filename,
                    lineno=lineno,
                    function="",
                    source=source,
                    cpu_python_percent=0.0,
                    cpu_native_percent=0.0,
                    cpu_system_percent=0.0,
                    mem_avg_mb=0.0,
                    mem_peak_mb=0.0,
                    mem_python_percent=0.0,
                    mem_activity_percent=0.0,
                    timeline=[],
                    copy_mb_s=0.0,
                    gpu_percent=0.0,
                    gpu_mem_peak_mb=0.0,
                )
            )
            continue
        share = (lambda t: 100.0 * t / total_cpu if total_cpu > 0 else 0.0)
        mem_python_percent = (
            100.0 * stats_line.python_alloc_mb / stats_line.malloc_mb
            if stats_line.malloc_mb > 0
            else 0.0
        )
        line_reports.append(
            LineReport(
                filename=filename,
                lineno=lineno,
                function=stats_line.function,
                source=source,
                cpu_python_percent=share(stats_line.python_time),
                cpu_native_percent=share(stats_line.native_time),
                cpu_system_percent=share(stats_line.system_time),
                mem_avg_mb=stats_line.avg_footprint_mb,
                mem_peak_mb=stats_line.peak_footprint_mb,
                mem_python_percent=mem_python_percent,
                mem_activity_percent=(
                    100.0 * stats_line.malloc_mb / stats.total_alloc_mb
                    if stats.total_alloc_mb > 0
                    else 0.0
                ),
                timeline=reduce_timeline(stats_line.timeline, config.timeline_points),
                copy_mb_s=stats_line.copy_mb / elapsed if elapsed > 0 else 0.0,
                gpu_percent=stats_line.gpu_utilization,
                gpu_mem_peak_mb=stats_line.gpu_mem_peak_mb,
            )
        )
    gpu_mean = (
        stats.gpu_util_sum / stats.gpu_sample_count if stats.gpu_sample_count else 0.0
    )
    function_reports = _aggregate_functions(stats, total_cpu, elapsed)
    return ProfileData(
        mode=config.mode,
        elapsed=elapsed,
        cpu_python_time=stats.total_python_time,
        cpu_native_time=stats.total_native_time,
        cpu_system_time=stats.total_system_time,
        cpu_samples=stats.cpu_sample_count,
        mem_samples=stats.mem_sample_count,
        peak_footprint_mb=stats.peak_footprint_mb,
        total_copy_mb=stats.total_copy_mb,
        gpu_mean_utilization=gpu_mean,
        gpu_mem_peak_mb=stats.gpu_mem_peak_mb,
        lines=line_reports,
        functions=function_reports,
        memory_timeline=reduce_timeline(stats.memory_timeline, config.timeline_points),
        leaks=leaks,
        sample_log_bytes=sample_log_bytes,
        total_alloc_mb=stats.total_alloc_mb,
        gpu_samples=stats.gpu_sample_count,
    )


def _ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, as ``sum()`` did before
    Python 3.12. Since 3.12 ``sum()`` compensates float rounding, which
    can move the last bit of a total, and the JSON payload keeps every
    bit: float totals use this so a profile is byte-identical on every
    supported Python.
    """
    total = 0
    for value in values:
        total += value
    return total


def _aggregate_functions(
    stats: ScaleneStats, total_cpu: float, elapsed: float
) -> List[FunctionReport]:
    """Aggregate per-line counters into per-function rows."""
    grouped: Dict[Tuple[str, str], List] = {}
    for stats_line in stats.lines.values():
        if not stats_line.function:
            continue
        grouped.setdefault((stats_line.filename, stats_line.function), []).append(
            stats_line
        )
    share = (lambda t: 100.0 * t / total_cpu if total_cpu > 0 else 0.0)
    reports = []
    for (filename, function), group in sorted(grouped.items()):
        gpu_samples = sum(line.gpu_samples for line in group)
        gpu_util = (
            _ordered_sum(line.gpu_util_sum for line in group) / gpu_samples
            if gpu_samples
            else 0.0
        )
        reports.append(
            FunctionReport(
                filename=filename,
                function=function,
                cpu_python_percent=share(_ordered_sum(l.python_time for l in group)),
                cpu_native_percent=share(_ordered_sum(l.native_time for l in group)),
                cpu_system_percent=share(_ordered_sum(l.system_time for l in group)),
                malloc_mb=_ordered_sum(l.malloc_mb for l in group),
                copy_mb=_ordered_sum(l.copy_mb for l in group),
                gpu_percent=gpu_util,
            )
        )
    reports.sort(key=lambda r: r.cpu_total_percent, reverse=True)
    return reports


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _as_timeline(points: Iterable) -> List[Tuple[float, float]]:
    """JSON turns timeline tuples into lists; restore the tuples."""
    return [(wall, mb) for wall, mb in points]


def _lint_from_dict(entry: Dict):
    """Rebuild a triangulated lint finding from its ``to_dict`` payload.

    Imported lazily: :mod:`repro.analysis.triangulate` imports this module,
    so the reverse import must happen at call time.
    """
    from repro.analysis.triangulate import TriangulatedFinding
    from repro.staticcheck.lints import Finding

    return TriangulatedFinding(
        finding=Finding(
            detector=entry["detector"],
            filename=entry["filename"],
            lineno=entry["lineno"],
            function=entry["function"],
            message=entry["message"],
            suggestion=entry["suggestion"],
        ),
        cpu_percent=entry["cpu_percent"],
        mem_activity_percent=entry["mem_activity_percent"],
        copy_percent=entry["copy_percent"],
        score=entry["score"],
        suppressed=entry["suppressed"],
        reason=entry["reason"],
    )


def _crossflow_from_dict(entry: Dict):
    """Rebuild a cross-flow finding from its ``to_dict`` payload.

    Imported lazily for the same reason as :func:`_lint_from_dict`:
    :mod:`repro.analysis.crossflow` imports this module.
    """
    from repro.analysis.crossflow import CrossFlowFinding

    return CrossFlowFinding(
        detector=entry["detector"],
        filename=entry["filename"],
        lineno=entry["lineno"],
        function=entry["function"],
        message=entry["message"],
        suggestion=entry["suggestion"],
        crossings=entry["crossings"],
        crossings_per_iteration=entry["crossings_per_iteration"],
        overhead_s=entry["overhead_s"],
        native_s=entry["native_s"],
        overhead_share_percent=entry["overhead_share_percent"],
        bytes_to_native=entry["bytes_to_native"],
        bytes_to_python=entry["bytes_to_python"],
        estimated_savings_s=entry["estimated_savings_s"],
    )


# ---------------------------------------------------------------------------
# Merging (the repro.serve aggregation semantics)
# ---------------------------------------------------------------------------
#
# A merged profile answers "what did this program do across these runs?"
# as if the runs had been one longer profiling session:
#
# * additive counters — CPU seconds (Python/native/system), CPU and
#   memory sample counts, allocation volume, copy volume, sample-log
#   bytes, elapsed time, leak malloc/free observations — are summed;
# * high-water marks — whole-program and per-line peak footprint, GPU
#   peak memory — take the max;
# * fractions are *recombined from the underlying absolute quantities*,
#   never averaged: per-line CPU percentages are converted back to
#   seconds against their own profile's total, summed, and re-expressed
#   against the merged total (i.e. sample-weighted); allocation-activity
#   and Python-share percentages are recombined the same way via each
#   profile's total_alloc_mb; GPU utilization is weighted by GPU sample
#   counts; per-line average footprint is weighted by memory samples;
# * leak likelihoods are re-derived by applying Laplace's Rule of
#   Succession, 1 - (frees + 1) / (mallocs + 2), to the *summed*
#   counters — never by averaging probabilities;
# * timelines are concatenated on a shared virtual clock (each run's
#   points shifted by the cumulative elapsed time of the runs before
#   it) and re-reduced to the usual point budget;
# * degraded-mode accounting is pessimistic: the merged profile is
#   degraded if *any* input was, and fault counters are summed key-wise
#   (a merge never launders a faulty run into a clean one).
#
# Because every combination rule is a sum, a max, or a weighted mean
# whose weight is itself a summed counter carried on the profile, the
# merge is associative and commutative up to float rounding.


@dataclass
class _LineAccumulator:
    filename: str
    lineno: int
    function: str = ""
    source: str = ""
    python_s: float = 0.0
    native_s: float = 0.0
    system_s: float = 0.0
    malloc_mb: float = 0.0
    python_alloc_mb: float = 0.0
    mem_avg_weighted: float = 0.0
    mem_avg_weight: float = 0.0
    mem_peak_mb: float = 0.0
    copy_mb: float = 0.0
    gpu_util_weighted: float = 0.0
    gpu_weight: float = 0.0
    gpu_mem_peak_mb: float = 0.0
    crossings: int = 0
    crossing_overhead_s: float = 0.0
    crossing_native_s: float = 0.0
    bytes_to_native: int = 0
    bytes_to_python: int = 0
    lock_blocked_s: float = 0.0
    lock_contentions: int = 0
    lock_acquisitions: int = 0
    timeline: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class _FunctionAccumulator:
    filename: str
    function: str
    python_s: float = 0.0
    native_s: float = 0.0
    system_s: float = 0.0
    malloc_mb: float = 0.0
    copy_mb: float = 0.0
    gpu_util_weighted: float = 0.0
    gpu_weight: float = 0.0


@dataclass
class _LeakAccumulator:
    filename: str
    lineno: int
    function: str
    mallocs: int = 0
    frees: int = 0
    leaked_mb: float = 0.0


def merge_profiles(
    profiles: Sequence["ProfileData"], *, timeline_points: int = 100
) -> "ProfileData":
    """Merge N profiles of the same program into one (semantics above).

    All profiles must share a mode; merging a ``cpu`` profile into a
    ``full`` one would silently zero the memory columns, so it is an
    error instead.
    """
    if not profiles:
        raise ProfilerError("merge_profiles needs at least one profile")
    modes = {p.mode for p in profiles}
    if len(modes) > 1:
        raise ProfilerError(
            f"cannot merge profiles with different modes: {sorted(modes)}"
        )
    if len(profiles) == 1:
        return profiles[0]

    merged_elapsed = _ordered_sum(p.elapsed for p in profiles)
    merged_python = _ordered_sum(p.cpu_python_time for p in profiles)
    merged_native = _ordered_sum(p.cpu_native_time for p in profiles)
    merged_system = _ordered_sum(p.cpu_system_time for p in profiles)
    merged_total_cpu = merged_python + merged_native + merged_system
    merged_alloc = _ordered_sum(p.total_alloc_mb for p in profiles)
    merged_gpu_samples = sum(p.gpu_samples for p in profiles)
    gpu_util_weighted = _ordered_sum(p.gpu_mean_utilization * p.gpu_samples for p in profiles)

    lines: Dict[Tuple[str, int], _LineAccumulator] = {}
    functions: Dict[Tuple[str, str], _FunctionAccumulator] = {}
    leaks: Dict[Tuple[str, int, str], _LeakAccumulator] = {}
    memory_timeline: List[Tuple[float, float]] = []
    lint_findings: List = []
    seen_lints = set()
    crossflow_findings: List = []
    seen_crossflow = set()
    # Concurrency-plane counters are all absolute quantities: edges sum
    # by (waiter, holder, lock), tasks by name, processes by (pid,
    # parent_pid) — each key is stable across runs of the same program.
    edges: Dict[Tuple[str, str, str], LockEdge] = {}
    tasks: Dict[str, TaskReport] = {}
    processes: Dict[Tuple[int, Optional[int]], ProcessReport] = {}

    offset = 0.0
    for profile in profiles:
        total_cpu = (
            profile.cpu_python_time
            + profile.cpu_native_time
            + profile.cpu_system_time
        )
        seconds = (lambda pct: pct / 100.0 * total_cpu)
        for line in profile.lines:
            acc = lines.get((line.filename, line.lineno))
            if acc is None:
                acc = _LineAccumulator(filename=line.filename, lineno=line.lineno)
                lines[(line.filename, line.lineno)] = acc
            acc.function = acc.function or line.function
            acc.source = acc.source or line.source
            acc.python_s += seconds(line.cpu_python_percent)
            acc.native_s += seconds(line.cpu_native_percent)
            acc.system_s += seconds(line.cpu_system_percent)
            # Recover absolute allocation volume from the percentages.
            line_malloc = line.mem_activity_percent / 100.0 * profile.total_alloc_mb
            acc.malloc_mb += line_malloc
            acc.python_alloc_mb += line.mem_python_percent / 100.0 * line_malloc
            acc.mem_avg_weighted += line.mem_avg_mb * profile.mem_samples
            acc.mem_avg_weight += profile.mem_samples
            acc.mem_peak_mb = max(acc.mem_peak_mb, line.mem_peak_mb)
            acc.copy_mb += line.copy_mb_s * profile.elapsed
            acc.gpu_util_weighted += line.gpu_percent * profile.gpu_samples
            acc.gpu_weight += profile.gpu_samples
            acc.gpu_mem_peak_mb = max(acc.gpu_mem_peak_mb, line.gpu_mem_peak_mb)
            acc.crossings += line.crossings
            acc.crossing_overhead_s += line.crossing_overhead_s
            acc.crossing_native_s += line.crossing_native_s
            acc.bytes_to_native += line.bytes_to_native
            acc.bytes_to_python += line.bytes_to_python
            acc.lock_blocked_s += line.lock_blocked_s
            acc.lock_contentions += line.lock_contentions
            acc.lock_acquisitions += line.lock_acquisitions
            acc.timeline.extend((wall + offset, mb) for wall, mb in line.timeline)
        for fn in profile.functions:
            facc = functions.get((fn.filename, fn.function))
            if facc is None:
                facc = _FunctionAccumulator(filename=fn.filename, function=fn.function)
                functions[(fn.filename, fn.function)] = facc
            facc.python_s += seconds(fn.cpu_python_percent)
            facc.native_s += seconds(fn.cpu_native_percent)
            facc.system_s += seconds(fn.cpu_system_percent)
            facc.malloc_mb += fn.malloc_mb
            facc.copy_mb += fn.copy_mb
            facc.gpu_util_weighted += fn.gpu_percent * profile.gpu_samples
            facc.gpu_weight += profile.gpu_samples
        for leak in profile.leaks:
            key = (leak.filename, leak.lineno, leak.function)
            lacc = leaks.get(key)
            if lacc is None:
                lacc = _LeakAccumulator(*key)
                leaks[key] = lacc
            lacc.mallocs += leak.mallocs
            lacc.frees += leak.frees
            lacc.leaked_mb += leak.leak_rate_mb_s * profile.elapsed
        for lint in profile.lint_findings:
            identity = (
                lint.finding.detector,
                lint.finding.filename,
                lint.finding.lineno,
                lint.finding.message,
            )
            if identity not in seen_lints:
                seen_lints.add(identity)
                lint_findings.append(lint)
        for finding in profile.crossflow_findings:
            identity = (
                finding.detector,
                finding.filename,
                finding.lineno,
                finding.message,
            )
            if identity not in seen_crossflow:
                seen_crossflow.add(identity)
                crossflow_findings.append(finding)
        for edge in profile.lock_edges:
            key = (edge.waiter, edge.holder, edge.lock)
            eacc = edges.get(key)
            if eacc is None:
                eacc = LockEdge(waiter=edge.waiter, holder=edge.holder, lock=edge.lock)
                edges[key] = eacc
            eacc.blocked_s += edge.blocked_s
            eacc.count += edge.count
        for task in profile.tasks:
            tacc = tasks.get(task.name)
            if tacc is None:
                tacc = TaskReport(name=task.name)
                tasks[task.name] = tacc
            tacc.cpu_s += task.cpu_s
            tacc.wait_s += task.wait_s
            tacc.switches += task.switches
            tacc.awaiting = tacc.awaiting or task.awaiting
        for proc in profile.processes:
            pkey = (proc.pid, proc.parent_pid)
            pacc = processes.get(pkey)
            if pacc is None:
                pacc = ProcessReport(pid=proc.pid, parent_pid=proc.parent_pid)
                processes[pkey] = pacc
            pacc.elapsed_s += proc.elapsed_s
            pacc.cpu_s += proc.cpu_s
            pacc.peak_mb = max(pacc.peak_mb, proc.peak_mb)
        memory_timeline.extend(
            (wall + offset, mb) for wall, mb in profile.memory_timeline
        )
        offset += profile.elapsed

    pct = (
        (lambda s: 100.0 * s / merged_total_cpu)
        if merged_total_cpu > 0
        else (lambda s: 0.0)
    )
    line_reports = [
        LineReport(
            filename=acc.filename,
            lineno=acc.lineno,
            function=acc.function,
            source=acc.source,
            cpu_python_percent=pct(acc.python_s),
            cpu_native_percent=pct(acc.native_s),
            cpu_system_percent=pct(acc.system_s),
            mem_avg_mb=(
                acc.mem_avg_weighted / acc.mem_avg_weight if acc.mem_avg_weight else 0.0
            ),
            mem_peak_mb=acc.mem_peak_mb,
            mem_python_percent=(
                100.0 * acc.python_alloc_mb / acc.malloc_mb if acc.malloc_mb > 0 else 0.0
            ),
            mem_activity_percent=(
                100.0 * acc.malloc_mb / merged_alloc if merged_alloc > 0 else 0.0
            ),
            timeline=reduce_timeline(acc.timeline, timeline_points),
            copy_mb_s=acc.copy_mb / merged_elapsed if merged_elapsed > 0 else 0.0,
            gpu_percent=(
                acc.gpu_util_weighted / acc.gpu_weight if acc.gpu_weight else 0.0
            ),
            gpu_mem_peak_mb=acc.gpu_mem_peak_mb,
            crossings=acc.crossings,
            crossing_overhead_s=acc.crossing_overhead_s,
            crossing_native_s=acc.crossing_native_s,
            bytes_to_native=acc.bytes_to_native,
            bytes_to_python=acc.bytes_to_python,
            lock_blocked_s=acc.lock_blocked_s,
            lock_contentions=acc.lock_contentions,
            lock_acquisitions=acc.lock_acquisitions,
        )
        for acc in sorted(lines.values(), key=lambda a: (a.filename, a.lineno))
    ]
    function_reports = [
        FunctionReport(
            filename=facc.filename,
            function=facc.function,
            cpu_python_percent=pct(facc.python_s),
            cpu_native_percent=pct(facc.native_s),
            cpu_system_percent=pct(facc.system_s),
            malloc_mb=facc.malloc_mb,
            copy_mb=facc.copy_mb,
            gpu_percent=(
                facc.gpu_util_weighted / facc.gpu_weight if facc.gpu_weight else 0.0
            ),
        )
        for facc in functions.values()
    ]
    function_reports.sort(key=lambda r: r.cpu_total_percent, reverse=True)
    leak_reports = [
        LeakReport(
            filename=lacc.filename,
            lineno=lacc.lineno,
            function=lacc.function,
            likelihood=leak_likelihood(lacc.mallocs, lacc.frees),
            leak_rate_mb_s=(
                lacc.leaked_mb / merged_elapsed if merged_elapsed > 0 else 0.0
            ),
            mallocs=lacc.mallocs,
            frees=lacc.frees,
        )
        for lacc in leaks.values()
    ]
    leak_reports.sort(key=lambda r: r.leak_rate_mb_s, reverse=True)

    merged_faults: Dict[str, int] = {}
    for profile in profiles:
        for name, count in profile.fault_counters.items():
            merged_faults[name] = merged_faults.get(name, 0) + count

    return ProfileData(
        mode=profiles[0].mode,
        elapsed=merged_elapsed,
        cpu_python_time=merged_python,
        cpu_native_time=merged_native,
        cpu_system_time=merged_system,
        cpu_samples=sum(p.cpu_samples for p in profiles),
        mem_samples=sum(p.mem_samples for p in profiles),
        peak_footprint_mb=max(p.peak_footprint_mb for p in profiles),
        total_copy_mb=_ordered_sum(p.total_copy_mb for p in profiles),
        gpu_mean_utilization=(
            gpu_util_weighted / merged_gpu_samples if merged_gpu_samples else 0.0
        ),
        gpu_mem_peak_mb=max(p.gpu_mem_peak_mb for p in profiles),
        lines=line_reports,
        functions=function_reports,
        memory_timeline=reduce_timeline(memory_timeline, timeline_points),
        leaks=leak_reports,
        sample_log_bytes=sum(p.sample_log_bytes for p in profiles),
        total_alloc_mb=merged_alloc,
        gpu_samples=merged_gpu_samples,
        lint_findings=lint_findings,
        degraded=any(p.degraded for p in profiles),
        fault_counters=merged_faults,
        total_crossings=sum(p.total_crossings for p in profiles),
        total_crossing_overhead_s=_ordered_sum(
            p.total_crossing_overhead_s for p in profiles
        ),
        total_bytes_to_native=sum(p.total_bytes_to_native for p in profiles),
        total_bytes_to_python=sum(p.total_bytes_to_python for p in profiles),
        crossflow_findings=crossflow_findings,
        total_lock_blocked_s=_ordered_sum(p.total_lock_blocked_s for p in profiles),
        total_lock_contentions=sum(p.total_lock_contentions for p in profiles),
        total_lock_acquisitions=sum(p.total_lock_acquisitions for p in profiles),
        lock_edges=sorted(edges.values(), key=lambda e: -e.blocked_s),
        tasks=sorted(tasks.values(), key=lambda t: t.name),
        processes=sorted(processes.values(), key=lambda p: p.pid),
        sketch=_merged_sketch(profiles),
    )


def _merged_sketch(profiles: Sequence[ProfileData]) -> Optional[Dict]:
    """The schema-v6 streaming aggregate a merged profile carries.

    Each constituent contributes its own sketch when it has one (a
    merged profile being re-merged) or a singleton sketch derived from
    its lines, so N-way merges compose associatively. Imported lazily —
    :mod:`repro.serve.streaming` depends on this module.
    """
    from repro.serve.streaming import merge_sketch_payloads, sketch_of_profile

    return merge_sketch_payloads(
        [p.sketch if p.sketch else sketch_of_profile(p).to_dict() for p in profiles]
    )
