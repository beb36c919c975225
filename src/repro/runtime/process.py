"""The simulated process: composition root of the whole substrate.

A :class:`SimProcess` bundles the virtual clock, signal manager, memory
subsystem, GPU device, tracer, threading services, and the VM, and runs a
compiled workload to completion. Profilers attach to a process *before*
``run()`` through exactly the hook surface their real counterparts use:

* ``process.signals`` — ``signal.setitimer`` / handlers (sampling profilers)
* ``process.trace`` — ``sys.settrace`` (deterministic profilers)
* ``process.mem.hooks`` — ``PyMem_SetAllocator`` (Python allocations)
* ``process.mem.shim`` — LD_PRELOAD malloc/free/memcpy interposition
* ``process.threading`` — monkey-patchable blocking calls, ``enumerate()``
* ``process.current_frames()`` — ``sys._current_frames()``
* ``process.nvml`` — GPU utilization/memory queries
* ``process.rss()`` — ``/proc/self/status`` VmRSS (RSS-proxy profilers)
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import VMError
from repro.gpu.device import GpuDevice, NvmlQuery
from repro.interp.astcompile import compile_source
from repro.interp.code import CodeObject, SimFunction
from repro.interp.disassembler import build_call_opcode_map
from repro.interp.vm import VM, VMConfig
from repro.interp.objects import decref
from repro.runtime.clock import VirtualClock
from repro.runtime.crossings import CrossingRecorder
from repro.runtime.ground_truth import GroundTruth
from repro.runtime.memsys import MemSubsystem
from repro.runtime.scheduler import AsyncRuntime, Scheduler
from repro.runtime.signals import SignalManager
from repro.runtime.threads import (
    RUNNABLE,
    LockContentionRecorder,
    SimThread,
    SimThreading,
)
from repro.runtime.tracing import TraceManager
from repro.units import DEFAULT_SWITCH_INTERVAL


class SimProcess:
    """One simulated Python process executing one workload."""

    def __init__(
        self,
        source: Optional[str] = None,
        *,
        filename: str = "<workload>",
        vm_config: Optional[VMConfig] = None,
        collect_ground_truth: bool = False,
        switch_interval: float = DEFAULT_SWITCH_INTERVAL,
        gpu: Optional[GpuDevice] = None,
        base_rss_bytes: int = 24 * 1024 * 1024,
        pid: int = 4242,
        parent_pid: Optional[int] = None,
    ) -> None:
        self.pid = pid
        #: Pid of the process that forked this one (None for the root).
        self.parent_pid = parent_pid
        #: The forking SimProcess itself (process-tree navigation).
        self.parent: Optional["SimProcess"] = None
        #: Next pid handed out by :meth:`allocate_pid` (root-owned).
        self._pid_counter = pid
        self.clock = VirtualClock()
        self.signals = SignalManager(self.clock)
        self.ground_truth: Optional[GroundTruth] = GroundTruth() if collect_ground_truth else None
        self.mem = MemSubsystem(self.clock, ground_truth=self.ground_truth, base_rss_bytes=base_rss_bytes)
        #: Exact native-boundary crossing counters (always on; see
        #: runtime/crossings.py). Profilers fold these into ProfileData.
        self.crossings = CrossingRecorder()
        #: Exact lock/semaphore contention counters (always on; see
        #: runtime/threads.py). Profilers fold these into ProfileData.
        self.lock_contention = LockContentionRecorder(self.clock)
        self.gpu = gpu or GpuDevice()
        self.nvml = NvmlQuery(self.gpu)
        self.trace = TraceManager(self)
        self.threading = SimThreading(self)
        self.vm = VM(self, vm_config)
        self.scheduler = Scheduler(self, switch_interval)
        #: Asyncio-style cooperative event loops (see runtime/scheduler.py).
        self.async_runtime = AsyncRuntime(self)
        self.filename = filename
        #: Files whose lines profilers attribute to (the "profiled code").
        self.profiled_filenames = {filename}
        self.globals: Dict[str, Any] = {}
        self.builtins: Dict[str, Any] = {}
        self.stdout: list = []
        self.main_thread = SimThread("MainThread", is_main=True)
        self.threading.register(self.main_thread)
        self.source: Optional[str] = None
        self.code: Optional[CodeObject] = None
        #: Callables run when the program exits, *before* interpreter
        #: teardown (the ``atexit`` analog profilers detach through).
        self.atexit_hooks: list = []
        #: Observers invoked with each child SimProcess the program forks
        #: (before the child runs). Profilers with multiprocessing support
        #: attach to children through this hook.
        self.child_observers: list = []
        #: Children forked by this process (for inspection).
        self.children: list = []
        #: False inside an mp child (the ``__name__ == "__main__"`` analog;
        #: exposed to workloads as the ``is_main()`` builtin).
        self.is_main_process = True
        #: The attached profiler exposing pause()/resume(), if any — the
        #: target of the ``profile_start()``/``profile_stop()`` builtins.
        self.profiler_control = None
        #: The attached :class:`repro.faults.FaultInjector`, if any
        #: (see :meth:`install_faults`).
        self.faults = None
        self.call_opcode_map: Dict[int, frozenset] = {}
        self._ran = False
        # Populate builtins (import here to avoid a cycle at module level).
        from repro.interp.builtins import install_builtins

        install_builtins(self)
        if source is not None:
            self.load(source)

    # -- loading ------------------------------------------------------------

    def load(self, source: str) -> None:
        """Compile ``source`` and prepare the main thread to run it."""
        self.source = source
        self.code = compile_source(source, self.filename)
        self.call_opcode_map = build_call_opcode_map(self.code)
        frame = self.vm.make_module_frame(self.code, self.globals, self.main_thread)
        self.main_thread.frame = frame
        self.main_thread.state = RUNNABLE

    def install_library(self, name: str, library: Any) -> None:
        """Expose a native library object as a global (an ``import`` analog)."""
        self.globals[name] = library

    def install_faults(self, injector) -> None:
        """Thread a :class:`repro.faults.FaultInjector` through the runtime.

        Attaches the injector to the clock (jump faults), the signal
        manager (drop/coalesce/delay faults), and the memory subsystem
        (ENOMEM/reentrancy faults). Call before :meth:`run`; profilers
        pick the injector up from ``process.faults`` when building the
        final profile and flag it as degraded.
        """
        self.faults = injector
        self.clock.faults = injector
        self.signals.faults = injector
        self.mem.faults = injector

    # -- execution ------------------------------------------------------------

    def run(self, max_wall: Optional[float] = None) -> None:
        """Run every thread to completion."""
        if self.code is None:
            raise VMError("no workload loaded; call load() first")
        if self._ran:
            raise VMError("a SimProcess can only run once; create a fresh one")
        self._ran = True
        try:
            self.scheduler.run(max_wall=max_wall)
        finally:
            for hook in self.atexit_hooks:
                hook()
            self._finalize()

    def _finalize(self) -> None:
        # Interpreter shutdown: module globals are torn down, releasing any
        # retained containers (their frees are visible to profilers).
        for value in list(self.globals.values()):
            decref(value)
        self.globals.clear()
        for thread in self.threading.threads:
            self.vm.flush_churn(thread)

    # -- fork/spawn process trees -------------------------------------------

    def allocate_pid(self) -> int:
        """Hand out the next pid in this process *tree* (root-owned, so
        pids stay unique across nested forks)."""
        if self.parent is not None:
            return self.parent.allocate_pid()
        self._pid_counter += 1
        return self._pid_counter

    def spawn_child(self, source: str, *, install_libraries: bool = True) -> "SimProcess":
        """Fork a child process running ``source`` (spawn semantics).

        The child inherits the VM config, GPU device, and ground-truth
        collection flag; it gets its own clock, memory subsystem, crossing
        and contention recorders (there is no GIL between processes). The
        child is registered in :attr:`children` with lineage recorded, and
        every ``child_observers`` hook fires *before* it runs — the
        attach point for profilers with multiprocessing support.

        The caller runs the child (``child.run()``) and models the
        parent-side wait; see :mod:`repro.interp.libs.simmp`.
        """
        child = SimProcess(
            source,
            filename=self.filename,
            pid=self.allocate_pid(),
            parent_pid=self.pid,
            vm_config=self.vm.config,
            gpu=self.gpu,
            collect_ground_truth=self.ground_truth is not None,
        )
        child.parent = self
        child.is_main_process = False
        if install_libraries:
            from repro.interp.libs import install_standard_libraries

            install_standard_libraries(child)
        self.children.append(child)
        for observer in self.child_observers:
            observer(child)
        return child

    def process_tree(self) -> list:
        """This process and every descendant, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.process_tree())
        return nodes

    # -- thread support (called by SimThreading.spawn) ---------------------------

    def start_thread(self, thread: SimThread, fn: SimFunction, args: tuple) -> None:
        self.threading.register(thread)
        thread.frame = self.vm.make_frame(fn, args, thread, back=None)
        thread.state = RUNNABLE
        thread.started_at = self.clock.wall

    # -- profiler-facing conveniences ---------------------------

    def current_frames(self):
        """``sys._current_frames()`` analog."""
        return self.threading.current_frames()

    def charge_overhead(self, thread, seconds: float) -> None:
        """Charge profiler-hook CPU time to the running thread.

        Advances the virtual clocks (so timers keep firing on schedule,
        exactly as real profiler overhead perturbs timing) and books the
        time in the ground truth's overhead bucket rather than to any
        program line. A timer deadline the charge crosses is polled inside
        :meth:`VirtualClock.advance_cpu`, so the signal is pending before
        the hook returns.
        """
        if seconds <= 0:
            return
        self.clock.advance_cpu(seconds)
        if thread is not None:
            thread.cpu_time += seconds
        if self.ground_truth is not None:
            self.ground_truth.record_overhead(seconds)

    def rss(self) -> int:
        """Resident set size in bytes (``/proc/self/status`` analog)."""
        return self.mem.rss()

    def cpu_time(self) -> float:
        """``time.process_time()`` analog."""
        return self.clock.cpu

    def wall_time(self) -> float:
        """``time.perf_counter()`` analog."""
        return self.clock.wall

    def getswitchinterval(self) -> float:
        """``sys.getswitchinterval()`` analog."""
        return self.scheduler.switch_interval
