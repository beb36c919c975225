"""Shared allocation-interposition plumbing for memory baselines.

Fil, Memray and the rate-based sampler all interpose on both allocation
domains the way Scalene does: a shim listener for native traffic plus a
PyMem-hook wrapper for Python-object traffic (delegating under the shim's
in-allocator flag to avoid double counting), both adapted onto one
``observe``.
"""

from __future__ import annotations

from repro.baselines.base import Profiler
from repro.memory.hooks import ObservingAllocator
from repro.memory.shim import DOMAIN_PYTHON, ShimListener


class AllocationInterposer(Profiler, ShimListener):
    """Base profiler observing every allocation event in both domains.

    Subclasses implement ``observe(signed_bytes, domain, address, thread)``.
    """

    def __init__(self, process) -> None:
        super().__init__(process)
        self._saved_allocator = None
        self.event_count = 0
        self._op_cost = process.vm.config.op_cost

    def _install(self) -> None:
        mem = self.process.mem
        mem.shim.add_listener(self)
        self._saved_allocator = mem.hooks.get_allocator()
        mem.hooks.set_allocator(
            ObservingAllocator(self._on_py_alloc, self._on_py_free, self._saved_allocator, mem.shim)
        )

    def _uninstall(self) -> None:
        mem = self.process.mem
        mem.shim.remove_listener(self)
        mem.hooks.set_allocator(self._saved_allocator)

    # -- PyMem wrapper callbacks and shim listener --------------------------------

    def _on_py_alloc(self, nbytes: int, address: int, thread) -> None:
        self.observe(nbytes, DOMAIN_PYTHON, address, thread)

    def _on_py_free(self, nbytes: int, address: int, thread) -> None:
        self.observe(-nbytes, DOMAIN_PYTHON, address, thread)

    def on_malloc(self, event) -> None:
        self.observe(+event.nbytes, event.domain, event.address, event.thread)

    def on_free(self, event) -> None:
        self.observe(-event.nbytes, event.domain, event.address, event.thread)

    # -- subclass hook ----------------------------------------------------------

    def observe(self, signed_bytes: int, domain: str, address: int, thread) -> None:
        raise NotImplementedError  # pragma: no cover

    # -- helpers ----------------------------------------------------------

    def charge(self, thread, ops: float) -> None:
        self.process.charge_overhead(thread, ops * self._op_cost)

    def attribution(self, thread):
        from repro.core.attribution import thread_location

        return thread_location(thread, self.process.profiled_filenames)
