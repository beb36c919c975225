"""Scalene's sampling memory-leak detector (paper §3.4).

Piggybacks on threshold sampling: whenever a growth sample establishes a
new high-water mark, the triggering allocation becomes the *tracked
object*. Every ``free`` performs one pointer comparison against it. At the
next high-water crossing the tracked object's site is scored — ``mallocs``
incremented when tracking started, ``frees`` incremented only if the
object was reclaimed — and a new object is tracked.

The leak likelihood uses Laplace's Rule of Succession over the site's
history::

    P(leak) = 1 - (frees + 1) / (mallocs + 2)

Reports are filtered to likelihood ≥ 95 % with overall footprint growth of
at least 1 %, and prioritized by *leak rate* (MB/s allocated at the site).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import ScaleneConfig
from repro.units import MiB

Location = Tuple[str, int, str]


def leak_likelihood(mallocs: int, frees: int) -> float:
    """Laplace's Rule of Succession: P(not freed) with add-one smoothing.

    Always a valid probability in [0, 1). Equivalently
    ``(mallocs - frees + 1) / (mallocs + 2)``, so with ``frees == 0`` it
    matches the paper's never-freed progression (>= 95 % after 18
    observations) exactly.
    """
    if mallocs < 0 or frees < 0 or frees > mallocs:
        raise ValueError(f"invalid leak score ({mallocs} mallocs, {frees} frees)")
    return 1.0 - (frees + 1) / (mallocs + 2)


@dataclass
class _TrackedAllocation:
    address: int
    nbytes: int
    location: Optional[Location]
    freed: bool = False


@dataclass
class _SiteScore:
    mallocs: int = 0
    frees: int = 0
    bytes_observed: int = 0
    first_seen_wall: float = 0.0
    last_seen_wall: float = 0.0


@dataclass
class LeakReport:
    """One reported leak site, ready for display."""

    filename: str
    lineno: int
    function: str
    likelihood: float
    leak_rate_mb_s: float
    mallocs: int
    frees: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.filename}:{self.lineno} ({self.function}) — "
            f"likelihood {self.likelihood:.0%}, rate {self.leak_rate_mb_s:.2f} MB/s"
        )


class LeakDetector:
    """High-water-mark piggyback leak scoring."""

    def __init__(self, config: ScaleneConfig) -> None:
        self._config = config
        self._high_water = 0
        #: The object being watched for a free; the memory profiler's free
        #: path makes on_free's comparison against it inline.
        self.tracked: Optional[_TrackedAllocation] = None
        self._sites: Dict[Location, _SiteScore] = {}
        #: Pointer comparisons performed (to demonstrate cheapness).
        self.free_checks = 0

    # -- hot-path hooks -------------------------------------------------------

    def on_free(self, address: int) -> None:
        """Called for every free: one almost-always-false comparison."""
        self.free_checks += 1
        tracked = self.tracked
        if tracked is not None and tracked.address == address:
            tracked.freed = True

    def on_growth_sample(
        self,
        *,
        footprint: int,
        address: int,
        nbytes: int,
        location: Optional[Location],
        wall: float,
    ) -> None:
        """Called by the threshold sampler on growth samples."""
        if footprint <= self._high_water:
            return
        self._high_water = footprint
        self._close_current()
        if location is None:
            return
        site = self._sites.get(location)
        if site is None:
            site = _SiteScore(first_seen_wall=wall)
            self._sites[location] = site
        site.mallocs += 1
        site.bytes_observed += nbytes
        site.last_seen_wall = wall
        self.tracked = _TrackedAllocation(address=address, nbytes=nbytes, location=location)

    def _close_current(self) -> None:
        tracked = self.tracked
        if tracked is None or tracked.location is None:
            self.tracked = None
            return
        if tracked.freed:
            self._sites[tracked.location].frees += 1
        self.tracked = None

    # -- reporting -------------------------------------------------------

    def finalize(self) -> None:
        """Close out the in-flight tracked object before reporting."""
        self._close_current()

    def site_score(self, location: Location) -> Tuple[int, int]:
        site = self._sites.get(location)
        return (site.mallocs, site.frees) if site else (0, 0)

    def report(
        self,
        memory_timeline: List[Tuple[float, float]],
        elapsed: float,
    ) -> List[LeakReport]:
        """Filtered, prioritized leak reports (§3.4)."""
        if not self._overall_growth_significant(memory_timeline):
            return []
        reports: List[LeakReport] = []
        for location, site in self._sites.items():
            likelihood = leak_likelihood(site.mallocs, site.frees)
            if likelihood < self._config.leak_likelihood_threshold:
                continue
            span = max(elapsed, 1e-9)
            rate = site.bytes_observed / MiB / span
            filename, lineno, function = location
            reports.append(
                LeakReport(
                    filename=filename,
                    lineno=lineno,
                    function=function,
                    likelihood=likelihood,
                    leak_rate_mb_s=rate,
                    mallocs=site.mallocs,
                    frees=site.frees,
                )
            )
        reports.sort(key=lambda r: r.leak_rate_mb_s, reverse=True)
        return reports

    def _overall_growth_significant(self, timeline: List[Tuple[float, float]]) -> bool:
        """The ≥1 % overall-growth filter."""
        if len(timeline) < 2:
            return False
        first = timeline[0][1]
        last = timeline[-1][1]
        peak = max(mb for _t, mb in timeline)
        if peak <= 0:
            return False
        return (last - first) / peak >= self._config.leak_growth_slope_threshold
