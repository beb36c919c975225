"""Memory subsystem facade used by the VM and native libraries.

Bundles the system allocator, shim, pymalloc and PyMem hooks, tracks the
*logical footprint* (live Python-object bytes plus live native bytes —
the quantity Scalene's threshold sampler tracks), and feeds the optional
ground-truth collector.
"""

from __future__ import annotations

from repro.memory.hooks import PyMemHooks
from repro.memory.pymalloc import PyAllocation, PyMalloc
from repro.memory.shim import DOMAIN_NATIVE, AllocatorShim
from repro.memory.sysalloc import Allocation, SystemAllocator


class MemSubsystem:
    """Composition of the simulated memory stack (see module docstring)."""

    def __init__(self, clock, ground_truth=None, base_rss_bytes: int = 24 * 1024 * 1024) -> None:
        self.sysalloc = SystemAllocator(base_rss_bytes=base_rss_bytes)
        self.shim = AllocatorShim(self.sysalloc, clock)
        self.pymalloc = PyMalloc(self.shim)
        self.hooks = PyMemHooks(self.pymalloc)
        self.ground_truth = ground_truth
        self._clock = clock
        self._native_live_bytes = 0
        self.peak_footprint = 0
        #: Count of live heap-backed simulated objects (diagnostics).
        self.live_object_count = 0
        #: Optional :class:`repro.faults.FaultInjector`. Two allocator
        #: fault families are consulted on every allocation:
        #:
        #: * **ENOMEM** — the allocation transiently fails and is retried
        #:   (the retry succeeds; only the fault counter and the perturbed
        #:   timing remain observable);
        #: * **shim reentrancy** — the allocation happens "inside the
        #:   allocator": memory moves, but the installed profiler hooks
        #:   never see the event (the §3.1 double-count hazard).
        self.faults = None

    # -- python-domain allocations (via the PyMem hooks) ------------------------

    def py_alloc(self, nbytes: int, thread=None) -> PyAllocation:
        # Hot path (object churn): dispatch straight to the installed
        # allocator and inline _update_peak()/logical_footprint().
        faults = self.faults
        if faults is not None:
            faults.alloc_enomem()  # transient failure, absorbed by retry
            if faults.shim_reentrancy():
                # Reentrant path: go straight to pymalloc, bypassing any
                # installed profiler wrapper — the event is unobserved.
                handle = self.hooks._default.alloc(nbytes, thread=thread)
            else:
                handle = self.hooks._current.alloc(nbytes, thread)
        else:
            handle = self.hooks._current.alloc(nbytes, thread)
        gt = self.ground_truth
        if gt is not None:
            gt.record_alloc(thread, nbytes, "python")
        pymalloc = self.pymalloc
        footprint = (
            pymalloc.total_bytes_allocated
            - pymalloc.total_bytes_freed
            + self._native_live_bytes
        )
        if footprint > self.peak_footprint:
            self.peak_footprint = footprint
        return handle

    def py_free(self, handle: PyAllocation, thread=None) -> None:
        self.hooks._current.free(handle, thread)
        gt = self.ground_truth
        if gt is not None:
            gt.record_free(thread, handle.nbytes, "python")

    def py_scratch(self, nbytes: int, thread=None) -> None:
        """Allocate-and-free a transient Python object of ``nbytes``.

        Workloads use this to model allocation *volume* that never changes
        the footprint — the traffic that rate-based sampling pays for and
        threshold-based sampling filters out (§3.2).
        """
        handle = self.py_alloc(nbytes, thread)
        self.py_free(handle, thread)

    # -- native-domain allocations (via the shim) ------------------------

    def native_alloc(self, nbytes: int, thread=None, *, touch: bool = True, tag: str = "native") -> Allocation:
        faults = self.faults
        if faults is not None:
            faults.alloc_enomem()  # transient failure, absorbed by retry
            if faults.shim_reentrancy():
                # Allocate under the in-allocator flag: the shim passes
                # the request through but publishes no event.
                shim = self.shim
                token = shim.enter_allocator(thread)
                try:
                    alloc = shim.malloc(
                        nbytes, thread=thread, touch=touch, tag=tag, domain=DOMAIN_NATIVE
                    )
                finally:
                    shim.exit_allocator(token)
                self._native_live_bytes += nbytes
                if self.ground_truth is not None:
                    self.ground_truth.record_alloc(thread, nbytes, "native")
                self._update_peak()
                return alloc
        alloc = self.shim.malloc(nbytes, thread=thread, touch=touch, tag=tag, domain=DOMAIN_NATIVE)
        self._native_live_bytes += nbytes
        if self.ground_truth is not None:
            self.ground_truth.record_alloc(thread, nbytes, "native")
        self._update_peak()
        return alloc

    def native_free(self, alloc: Allocation, thread=None) -> None:
        self.shim.free(alloc, thread=thread, domain=DOMAIN_NATIVE)
        self._native_live_bytes -= alloc.nbytes
        if self.ground_truth is not None:
            self.ground_truth.record_free(thread, alloc.nbytes, "native")

    def memcpy(self, nbytes: int, thread=None, direction: str = "host") -> None:
        self.shim.memcpy(nbytes, thread=thread, direction=direction)
        if self.ground_truth is not None:
            self.ground_truth.record_memcpy(thread, nbytes)

    # -- object registry (HeapBacked lifecycle) ------------------------

    def register_object(self, obj) -> None:
        self.live_object_count += 1

    def unregister_object(self, obj) -> None:
        self.live_object_count -= 1

    # -- footprint ------------------------

    def logical_footprint(self) -> int:
        """Live bytes as seen by an interposition-based profiler."""
        return self.pymalloc.live_bytes + self._native_live_bytes

    @property
    def native_live_bytes(self) -> int:
        return self._native_live_bytes

    def rss(self) -> int:
        """Resident set size (what RSS-proxy profilers report)."""
        return self.sysalloc.rss_bytes()

    def _update_peak(self) -> None:
        footprint = self.logical_footprint()
        if footprint > self.peak_footprint:
            self.peak_footprint = footprint
