"""The simulated interpreter's evaluation loop.

The VM executes compiled bytecode on virtual time and reproduces the four
CPython behaviours Scalene's algorithms are built on:

1. **Signals are checked at bytecode boundaries** of the **main thread**
   only; a native call runs to completion with signals pending (§2.1).
2. **The GIL**: one thread executes at a time; the scheduler preempts at
   the switch interval (§2.2).
3. **Tracing** fires call/line/return (and c_call/c_return) events with a
   real probe cost (§6.2's function bias).
4. **Every Python object allocation** flows through the PyMem hooks, and
   native library allocations flow through the system-allocator shim
   (§3.1), including the small-object churn of interpreter temporaries.

Dispatch design (see DESIGN.md, "Threaded dispatch"): instructions are
precompiled into *threaded entries* ``(kind, arg, lineno, churn, cache)``
cached on the code object; hot opcodes dispatch on small-int kinds inside
the loop, cold opcodes through a handler table. Per-op accounting is
batched and flushed at every observation point (signal delivery, trace
events, calls, returns, slice exits). Timer expirations are detected per
op via cached deadlines and the pending-signal check is batched to a
quantum of ops, so every signal is still delivered at an opcode boundary,
preserving the paper's semantics.
"""

from __future__ import annotations

import operator as host_operator
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.errors import SimRuntimeError, VMError
from repro.interp import opcodes as op
from repro.interp.code import CodeObject, Frame, SimFunction
from repro.interp.objects import (
    BlockRequest,
    BoundMethod,
    HeapBacked,
    NativeFunction,
    SimDict,
    SimList,
    decref,
    incref,
    release_temp,
    sim_iter,
)
from repro.runtime import tracing

# run_slice exit statuses
PREEMPTED = "preempted"
BLOCKED = "blocked"
FINISHED = "finished"

_ITER_EXHAUSTED = object()
_CALL_PUSHED_FRAME = object()
_MISSING = object()


#: Ops between pending-signal checks (CPython's ``eval_breaker``
#: batching). A timer deadline crossed by an op's own charge is polled and
#: delivered at the next op boundary; a signal made pending inside an op
#: body (by a profiler hook's charge or a native call's CPU time) or out
#: of band (``raise_signal``) may wait up to this many ops.
EVAL_QUANTUM = 8


@dataclass
class VMConfig:
    """Tunables of the simulated interpreter.

    ``op_cost`` is the virtual CPU cost of one bytecode instruction. It is
    deliberately large relative to real CPython (tens of microseconds vs.
    tens of nanoseconds) so that paper-scale virtual durations (~10 s per
    benchmark) stay tractable on the host; all profiler intervals live in
    the same virtual time base, so ratios are preserved.
    """

    op_cost: float = 50e-6
    #: Model small-object churn: each object-creating opcode allocates a
    #: small Python object through the PyMem hooks; a bounded FIFO frees
    #: old ones, so churn adds allocation volume but ~zero net footprint.
    churn_enabled: bool = True
    churn_object_bytes: int = 28
    churn_fifo_depth: int = 32
    #: Size of a frame object allocated per Python call.
    frame_object_bytes: int = 368
    #: Fixed cost of one Python↔native boundary crossing, in units of
    #: ``op_cost``: argument parsing, calling-convention glue, and result
    #: boxing. Charged as native time on every native-library call (not on
    #: interpreter builtins) and attributed separately from the work done
    #: inside the call, so chatty call patterns are visible as overhead.
    crossing_overhead_ops: float = 0.25


_BINARY_FUNCS = {
    "+": host_operator.add,
    "-": host_operator.sub,
    "*": host_operator.mul,
    "/": host_operator.truediv,
    "//": host_operator.floordiv,
    "%": host_operator.mod,
    "**": host_operator.pow,
    "<<": host_operator.lshift,
    ">>": host_operator.rshift,
    "&": host_operator.and_,
    "|": host_operator.or_,
    "^": host_operator.xor,
}

_COMPARE_FUNCS = {
    "==": host_operator.eq,
    "!=": host_operator.ne,
    "<": host_operator.lt,
    "<=": host_operator.le,
    ">": host_operator.gt,
    ">=": host_operator.ge,
    "is": lambda a, b: a is b,
    "is not": lambda a, b: a is not b,
}

#: Operand classes whose binary-op semantics are exactly the host's and
#: which are never heap-backed (so skipping ``release_temp`` is a no-op).
_HOST_OPERANDS = frozenset({int, float, bool, str, tuple, complex})


# Small-int opcode kinds for threaded dispatch. Hot kinds are inlined in
# ``run_slice`` (ordered by measured frequency); cold kinds go through the
# ``VM._cold`` handler table.
_K_LOAD_NAME = 0
_K_LOAD_CONST = 1
_K_BINARY_OP = 2
_K_STORE_NAME = 3
_K_COMPARE_OP = 4
_K_POP_JUMP_IF_FALSE = 5
_K_JUMP = 6
_K_CALL = 7
_K_FOR_ITER = 8
_K_POP_JUMP_IF_TRUE = 9
_K_BINARY_SUBSCR = 10
_K_STORE_SUBSCR = 11
_K_LOAD_ATTR = 12
_K_RETURN_VALUE = 13
_K_POP_TOP = 14
_K_GET_ITER = 15
_K_BUILD_LIST = 16
_K_BUILD_TUPLE = 17
_K_LIST_APPEND = 18
_K_UNARY_OP = 19
_K_JUMP_IF_FALSE_OR_POP = 20
_K_JUMP_IF_TRUE_OR_POP = 21
_K_BUILD_MAP = 22
_K_BUILD_SLICE = 23
_K_UNPACK_SEQUENCE = 24
_K_MAKE_FUNCTION = 25
_K_DELETE_NAME = 26
_K_NOP = 27
_K_SETUP_EXCEPT = 28
_K_POP_BLOCK = 29
_N_KINDS = 30

_KIND = {
    op.LOAD_NAME: _K_LOAD_NAME,
    op.LOAD_CONST: _K_LOAD_CONST,
    op.BINARY_OP: _K_BINARY_OP,
    op.STORE_NAME: _K_STORE_NAME,
    op.COMPARE_OP: _K_COMPARE_OP,
    op.POP_JUMP_IF_FALSE: _K_POP_JUMP_IF_FALSE,
    op.JUMP: _K_JUMP,
    op.CALL: _K_CALL,
    op.CALL_METHOD: _K_CALL,
    op.FOR_ITER: _K_FOR_ITER,
    op.POP_JUMP_IF_TRUE: _K_POP_JUMP_IF_TRUE,
    op.BINARY_SUBSCR: _K_BINARY_SUBSCR,
    op.STORE_SUBSCR: _K_STORE_SUBSCR,
    op.LOAD_ATTR: _K_LOAD_ATTR,
    op.LOAD_METHOD: _K_LOAD_ATTR,
    op.RETURN_VALUE: _K_RETURN_VALUE,
    op.POP_TOP: _K_POP_TOP,
    op.GET_ITER: _K_GET_ITER,
    op.BUILD_LIST: _K_BUILD_LIST,
    op.BUILD_TUPLE: _K_BUILD_TUPLE,
    op.LIST_APPEND: _K_LIST_APPEND,
    op.UNARY_OP: _K_UNARY_OP,
    op.JUMP_IF_FALSE_OR_POP: _K_JUMP_IF_FALSE_OR_POP,
    op.JUMP_IF_TRUE_OR_POP: _K_JUMP_IF_TRUE_OR_POP,
    op.BUILD_MAP: _K_BUILD_MAP,
    op.BUILD_SLICE: _K_BUILD_SLICE,
    op.UNPACK_SEQUENCE: _K_UNPACK_SEQUENCE,
    op.MAKE_FUNCTION: _K_MAKE_FUNCTION,
    op.DELETE_NAME: _K_DELETE_NAME,
    op.NOP: _K_NOP,
    op.SETUP_EXCEPT: _K_SETUP_EXCEPT,
    op.POP_BLOCK: _K_POP_BLOCK,
}


def _build_entries(code: CodeObject) -> list:
    """Precompute threaded-dispatch entries for ``code``.

    One ``(kind, arg, lineno, churn, cache)`` tuple per instruction:
    constants are pre-resolved (LOAD_CONST / MAKE_FUNCTION), operator
    functions pre-bound (BINARY_OP / COMPARE_OP), and mutable inline-cache
    slots attached (LOAD_NAME / LOAD_ATTR). Entries are cached on the code
    object and shared across VMs (the inline caches are validated by
    identity + version, so cross-process sharing is safe — see DESIGN.md).
    """
    entries = []
    consts = code.constants
    allocating = op.ALLOCATING_OPCODES
    kinds = _KIND
    for instr in code.instructions:
        opcode = instr.opcode
        kind = kinds.get(opcode)
        if kind is None:
            raise VMError(f"unknown opcode {opcode}")
        arg = instr.arg
        cache = None
        if kind == _K_LOAD_CONST or kind == _K_MAKE_FUNCTION:
            arg = consts[arg]
        elif kind == _K_LOAD_NAME:
            # [globals_dict, globals_version, value]
            cache = [None, -1, None]
        elif kind == _K_LOAD_ATTR:
            # [receiver, bound method]
            cache = [None, None]
        elif kind == _K_BINARY_OP:
            cache = _BINARY_FUNCS.get(arg)
        elif kind == _K_COMPARE_OP:
            cache = _COMPARE_FUNCS.get(arg)  # None for in / not in
        entries.append((kind, arg, instr.lineno, opcode in allocating, cache))
    code._threaded = entries
    return entries


class NativeContext:
    """Capabilities handed to native functions (see NativeFunction).

    Native code consumes CPU time *without signal checks*, allocates
    native memory through the shim, copies bytes (copy volume), performs
    blocking IO, and launches GPU kernels.
    """

    __slots__ = ("process", "thread")

    def __init__(self, process, thread) -> None:
        self.process = process
        self.thread = thread

    # -- time ----------------------------------------------------------------

    def consume(self, seconds: float) -> None:
        """Execute natively for ``seconds`` of CPU time (signals deferred)."""
        if seconds <= 0:
            return
        process = self.process
        process.clock.advance_cpu(seconds)
        self.thread.cpu_time += seconds
        if process.ground_truth is not None:
            process.ground_truth.record_native_time(self.thread, seconds)

    # -- memory ----------------------------------------------------------------

    def alloc(self, nbytes: int, *, touch: bool = True, tag: str = "native"):
        """Allocate native memory (e.g. an array buffer)."""
        return self.process.mem.native_alloc(nbytes, self.thread, touch=touch, tag=tag)

    def free(self, alloc) -> None:
        self.process.mem.native_free(alloc, self.thread)

    def touch(self, alloc, nbytes: Optional[int] = None) -> None:
        """Write pages of a native allocation (raises its RSS share)."""
        self.process.mem.shim.touch(alloc, nbytes)

    def scratch(self, nbytes: int) -> None:
        """Transient Python-domain allocation volume (no footprint change)."""
        self.process.mem.py_scratch(nbytes, self.thread)

    def py_alloc(self, nbytes: int):
        """Persistent Python-domain allocation (e.g. boxed result objects)."""
        return self.process.mem.py_alloc(nbytes, self.thread)

    def py_free(self, handle) -> None:
        self.process.mem.py_free(handle, self.thread)

    def memcpy(self, nbytes: int, direction: str = "host") -> None:
        self.process.mem.memcpy(nbytes, self.thread, direction)

    def marshal(
        self, nbytes: int, conversion: str, direction: str = "host"
    ) -> None:
        """A boundary *conversion* copy: memcpy plus directional accounting.

        ``conversion`` is ``to_native`` (Python objects materialized into
        a native buffer, e.g. ``np.asarray``) or ``to_python`` (native
        data extracted into Python objects, e.g. ``tolist``). ``direction``
        is forwarded to memcpy so GPU-leg copies (h2d/d2h) keep their
        copy-volume semantics unchanged.
        """
        self.process.mem.memcpy(nbytes, self.thread, direction)
        frame = self.thread.frame
        if frame is not None:
            filename, lineno, _func = frame.location()
            self.process.crossings.record_bytes(filename, lineno, nbytes, conversion)

    # -- blocking ----------------------------------------------------------------

    def io_wait(self, seconds: float) -> Optional[BlockRequest]:
        """Blocking IO: wall time passes, no CPU is consumed."""
        if seconds <= 0:
            return None
        return BlockRequest(
            deadline=self.process.clock.wall + seconds,
            interruptible=True,
            is_io=True,
        )

    # -- GPU ----------------------------------------------------------------

    def gpu_launch(self, duration: float, name: str = "kernel"):
        """Launch an asynchronous kernel occupying the device for ``duration``."""
        device = self.process.gpu
        kernel = device.launch_kernel(self.process.pid, self.process.clock.wall, duration, name)
        if self.process.ground_truth is not None:
            self.process.ground_truth.record_gpu_time(self.thread, duration)
        return kernel

    def gpu_alloc(self, nbytes: int) -> int:
        return self.process.gpu.alloc(self.process.pid, nbytes)

    def gpu_free(self, address: int) -> None:
        self.process.gpu.free(address)

    def gpu_sync(self) -> Optional[BlockRequest]:
        """Wait for all of this process's kernels to finish (system time)."""
        device = self.process.gpu
        now = self.process.clock.wall
        end = max(
            (k.end for k in device._kernels if k.pid == self.process.pid),
            default=now,
        )
        if end <= now:
            return None
        return BlockRequest(deadline=end, interruptible=True, is_io=True)

    # -- misc ----------------------------------------------------------------

    @property
    def clock(self):
        return self.process.clock

    @property
    def mem(self):
        return self.process.mem


class VM:
    """Executes simulated threads one GIL slice at a time."""

    def __init__(self, process, config: Optional[VMConfig] = None) -> None:
        self.process = process
        self.config = config or VMConfig()
        self.instruction_count = 0
        #: Bumped on every store/delete into a globals namespace; validates
        #: LOAD_NAME inline caches (globals and builtins resolutions).
        self._globals_version = 0
        cold = [None] * _N_KINDS
        cold[_K_UNARY_OP] = self._h_unary
        cold[_K_JUMP_IF_FALSE_OR_POP] = self._h_jump_if_false_or_pop
        cold[_K_JUMP_IF_TRUE_OR_POP] = self._h_jump_if_true_or_pop
        cold[_K_BUILD_MAP] = self._h_build_map
        cold[_K_BUILD_SLICE] = self._h_build_slice
        cold[_K_UNPACK_SEQUENCE] = self._h_unpack_sequence
        cold[_K_MAKE_FUNCTION] = self._h_make_function
        cold[_K_DELETE_NAME] = self._h_delete_name
        cold[_K_NOP] = self._h_nop
        cold[_K_SETUP_EXCEPT] = self._h_setup_except
        cold[_K_POP_BLOCK] = self._h_pop_block
        #: Handler table for cold opcodes: ``fn(thread, frame, entry, pc) -> pc``.
        self._cold = cold

    # -- frame management ----------------------------------------------------------

    def make_frame(self, fn: SimFunction, args: tuple, thread, back: Optional[Frame]) -> Frame:
        code = fn.code
        if len(args) != len(code.params):
            raise SimRuntimeError(
                f"{fn.name}() takes {len(code.params)} arguments but {len(args)} were given"
            )
        frame = Frame(code, fn.globals, back=back)
        frame.py_handle = self.process.mem.py_alloc(self.config.frame_object_bytes, thread)
        for name, value in zip(code.params, args):
            incref(value)
            frame.locals[name] = value
        return frame

    def make_module_frame(self, code: CodeObject, globals_dict: dict, thread) -> Frame:
        frame = Frame(code, globals_dict)
        frame.locals = globals_dict  # module scope: locals IS globals
        frame.py_handle = self.process.mem.py_alloc(self.config.frame_object_bytes, thread)
        return frame

    def _teardown_frame(self, frame: Frame, retval: Any, thread) -> None:
        is_module = frame.locals is frame.globals
        if isinstance(retval, HeapBacked):
            retval.rc += 1  # protect from the locals sweep below
        if not is_module:
            for value in frame.locals.values():
                decref(value)
            frame.locals.clear()
        if frame.py_handle is not None:
            self.process.mem.py_free(frame.py_handle, thread)
            frame.py_handle = None
        if isinstance(retval, HeapBacked):
            retval.rc -= 1  # back to floating/stored state; no destroy check

    # -- churn model ----------------------------------------------------------

    def _churn(self, thread) -> None:
        mem = self.process.mem
        handle = mem.py_alloc(self.config.churn_object_bytes, thread)
        fifo = thread.churn
        fifo.append(handle)
        if len(fifo) > self.config.churn_fifo_depth:
            mem.py_free(fifo.popleft(), thread)

    def flush_churn(self, thread) -> None:
        mem = self.process.mem
        while thread.churn:
            mem.py_free(thread.churn.popleft(), thread)

    # -- native context ----------------------------------------------------------

    def _native_ctx(self, thread) -> NativeContext:
        ctx = thread.native_ctx
        if ctx is None:
            ctx = thread.native_ctx = NativeContext(self.process, thread)
        return ctx

    # -- the eval loop ----------------------------------------------------------

    def run_slice(self, thread, wall_deadline: float) -> str:
        """Run ``thread`` until preemption, blocking, or completion.

        The loop dispatches precompiled threaded entries (``_build_entries``)
        on small-int kinds with all per-instruction state hoisted into
        locals. Each op's charge advances the clock without polling the
        timers: by direct slot writes, or through
        :meth:`VirtualClock.advance_cpu_unpolled` when the clock has
        observers or a fault injector. A deadline that charge crosses is
        polled at the op's eval-breaker check and at every slice exit,
        which is semantically identical to polling on every advance
        because timers depend only on absolute clock values. Per-op
        accounting (cpu_time, instruction_count, ground-truth Python time)
        is batched and flushed at every externally observable point.
        """
        process = self.process
        clock = process.clock
        signals = process.signals
        trace = process.trace
        config = self.config
        ground_truth = process.ground_truth
        gt_enabled = ground_truth is not None
        churn_enabled = config.churn_enabled
        op_cost = config.op_cost
        builtins_get = process.builtins.get
        pending = signals._pending
        is_main = thread.is_main
        cold = self._cold
        mem = process.mem
        # Churn state, hoisted so the hot loop can inline _churn().
        py_alloc = mem.py_alloc
        py_free = mem.py_free
        churn_bytes = config.churn_object_bytes
        churn_depth = config.churn_fifo_depth
        fifo = thread.churn
        # Observers and clock-jump faults take the clock's method per op.
        observed = clock._observed

        K_LOAD_NAME = _K_LOAD_NAME
        K_LOAD_CONST = _K_LOAD_CONST
        K_BINARY_OP = _K_BINARY_OP
        K_STORE_NAME = _K_STORE_NAME
        K_COMPARE_OP = _K_COMPARE_OP
        K_POP_JUMP_IF_FALSE = _K_POP_JUMP_IF_FALSE
        K_JUMP = _K_JUMP
        K_CALL = _K_CALL
        K_FOR_ITER = _K_FOR_ITER
        K_POP_JUMP_IF_TRUE = _K_POP_JUMP_IF_TRUE
        K_BINARY_SUBSCR = _K_BINARY_SUBSCR
        K_STORE_SUBSCR = _K_STORE_SUBSCR
        K_LOAD_ATTR = _K_LOAD_ATTR
        K_RETURN_VALUE = _K_RETURN_VALUE
        K_POP_TOP = _K_POP_TOP
        K_GET_ITER = _K_GET_ITER
        K_BUILD_LIST = _K_BUILD_LIST
        K_BUILD_TUPLE = _K_BUILD_TUPLE
        K_LIST_APPEND = _K_LIST_APPEND
        MISSING = _MISSING
        HOST = _HOST_OPERANDS

        # Resume from a block, if any (handles signal wake-ups and
        # retry-style blocks such as Scalene's patched join).
        if thread.block is not None:
            status = self._resume_from_block(thread)
            if status is not None:
                return status

        frame = thread.frame
        if frame is None:
            return FINISHED

        trace_active = trace.active
        next_cpu_dl, nwd = signals.next_deadlines()
        next_wall_dl = nwd if nwd < wall_deadline else wall_deadline

        ops_done = 0  # charged ops not yet flushed to thread.cpu_time
        gt_ops = 0  # charged ops not yet flushed to ground truth (this line)
        breaker = 0  # pending-signal check countdown (quantum batching)

        while True:  # per-frame loop: re-hoists frame state after call/return
            code = frame.code
            entries = code._threaded
            if entries is None:
                entries = _build_entries(code)
            n = len(entries)
            stack = frame.stack
            f_locals = frame.locals
            f_globals = frame.globals
            global_names = code.global_names
            pc = frame.pc
            cur_line = None  # force line bookkeeping on the first op
            try:
                while True:
                    # ---- quantum breaker: batched pending-signal check ----
                    breaker -= 1
                    if breaker < 0:
                        breaker = EVAL_QUANTUM
                        if pending and is_main:
                            frame.pc = pc
                            frame.lasti = pc
                            if ops_done:
                                thread.cpu_time += ops_done * op_cost
                                self.instruction_count += ops_done
                                ops_done = 0
                            if gt_ops:
                                ground_truth.record_python_time(thread, gt_ops * op_cost)
                                gt_ops = 0
                            signals.deliver_pending(thread)
                            trace_active = trace.active
                            next_cpu_dl, nwd = signals.next_deadlines()
                            next_wall_dl = nwd if nwd < wall_deadline else wall_deadline

                    if pc >= n:
                        raise VMError(f"pc out of range in {code.name}")
                    entry = entries[pc]
                    kind = entry[0]
                    lineno = entry[2]
                    pc += 1

                    # ---- line bookkeeping (on transitions only) -----------
                    if lineno != cur_line:
                        if gt_ops:
                            ground_truth.record_python_time(thread, gt_ops * op_cost)
                            gt_ops = 0
                        frame.lineno = lineno
                        cur_line = lineno
                        if trace_active and lineno != frame.last_traced_line:
                            frame.last_traced_line = lineno
                            frame.pc = pc - 1
                            frame.lasti = pc - 1
                            if ops_done:
                                thread.cpu_time += ops_done * op_cost
                                self.instruction_count += ops_done
                                ops_done = 0
                            trace.fire(thread, frame, tracing.EVENT_LINE)
                            trace_active = trace.active
                            next_cpu_dl, nwd = signals.next_deadlines()
                            next_wall_dl = nwd if nwd < wall_deadline else wall_deadline

                    # ---- charge the interpreter cost of this instruction --
                    # (no poll: the eval breaker below polls a crossed
                    # deadline, observed or not)
                    if observed:
                        clock.advance_cpu_unpolled(op_cost)
                        cpu = clock._cpu
                        wall = clock._wall
                    else:
                        cpu = clock._cpu + op_cost
                        wall = clock._wall + op_cost
                        clock._cpu = cpu
                        clock._wall = wall
                    ops_done += 1
                    if gt_enabled:
                        gt_ops += 1

                    # Small-object churn for object-creating opcodes
                    # (inlined _churn).
                    if entry[3] and churn_enabled:
                        fifo.append(py_alloc(churn_bytes, thread))
                        if len(fifo) > churn_depth:
                            py_free(fifo.popleft(), thread)

                    # ---- execute ------------------------------------------
                    if kind == K_LOAD_NAME:
                        name = entry[1]
                        value = f_locals.get(name, MISSING)
                        if value is MISSING:
                            c = entry[4]
                            if c[0] is f_globals and c[1] == self._globals_version:
                                value = c[2]
                            else:
                                value = f_globals.get(name, MISSING)
                                if value is MISSING:
                                    value = builtins_get(name, MISSING)
                                    if value is MISSING:
                                        raise SimRuntimeError(
                                            f"NameError: name {name!r} is not defined"
                                        )
                                c[0] = f_globals
                                c[1] = self._globals_version
                                c[2] = value
                        stack.append(value)
                    elif kind == K_LOAD_CONST:
                        stack.append(entry[1])
                    elif kind == K_BINARY_OP:
                        right = stack.pop()
                        left = stack.pop()
                        fn = entry[4]
                        if (
                            fn is not None
                            and left.__class__ in HOST
                            and right.__class__ in HOST
                        ):
                            try:
                                stack.append(fn(left, right))
                            except (TypeError, ZeroDivisionError, ValueError) as exc:
                                raise SimRuntimeError(
                                    f"binary op {entry[1]!r} failed: {exc}"
                                ) from None
                        else:
                            stack.append(self._op_binary(thread, entry[1], left, right))
                    elif kind == K_STORE_NAME:
                        value = stack.pop()
                        name = entry[1]
                        if name in global_names:
                            namespace = f_globals
                        else:
                            namespace = f_locals
                        old = namespace.get(name)
                        if isinstance(value, HeapBacked):
                            value.rc += 1
                        namespace[name] = value
                        if namespace is f_globals:
                            self._globals_version += 1
                        if old is not None and old is not value:
                            decref(old)
                    elif kind == K_COMPARE_OP:
                        right = stack.pop()
                        left = stack.pop()
                        fn = entry[4]
                        if fn is not None:
                            try:
                                stack.append(fn(left, right))
                            except TypeError as exc:
                                raise SimRuntimeError(
                                    f"comparison {entry[1]!r} failed: {exc}"
                                ) from None
                        else:
                            stack.append(self._op_compare(entry[1], left, right))
                    elif kind == K_POP_JUMP_IF_FALSE:
                        if not stack.pop():
                            pc = entry[1]
                    elif kind == K_JUMP:
                        pc = entry[1]
                    elif kind == K_CALL:
                        frame.pc = pc
                        frame.lasti = pc - 1  # parked on the call (§2.2)
                        if ops_done:
                            thread.cpu_time += ops_done * op_cost
                            self.instruction_count += ops_done
                            ops_done = 0
                        if gt_ops:
                            ground_truth.record_python_time(thread, gt_ops * op_cost)
                            gt_ops = 0
                        result = self._op_call(thread, frame, entry[1])
                        if result is _CALL_PUSHED_FRAME:
                            frame = thread.frame
                            trace_active = trace.active
                            next_cpu_dl, nwd = signals.next_deadlines()
                            next_wall_dl = nwd if nwd < wall_deadline else wall_deadline
                            break  # re-hoist the callee frame
                        if isinstance(result, BlockRequest):
                            self._enter_block(thread, result)
                            signals.poll()
                            return BLOCKED
                        stack.append(result)
                        # Native code may have run long, armed timers, or
                        # raised signals: refresh, deliver, maybe preempt.
                        trace_active = trace.active
                        if pending and is_main:
                            signals.deliver_pending(thread)
                            trace_active = trace.active
                        next_cpu_dl, nwd = signals.next_deadlines()
                        next_wall_dl = nwd if nwd < wall_deadline else wall_deadline
                        if clock._wall >= wall_deadline:
                            signals.poll()
                            return PREEMPTED
                    elif kind == K_FOR_ITER:
                        value = next(stack[-1], _ITER_EXHAUSTED)
                        if value is _ITER_EXHAUSTED:
                            stack.pop()
                            pc = entry[1]
                        else:
                            stack.append(value)
                    elif kind == K_POP_JUMP_IF_TRUE:
                        if stack.pop():
                            pc = entry[1]
                    elif kind == K_BINARY_SUBSCR:
                        index = stack.pop()
                        container = stack.pop()
                        cls = container.__class__
                        if cls is SimList or cls is SimDict:
                            stack.append(container.getitem(index))
                        else:
                            stack.append(self._op_subscr(thread, container, index))
                    elif kind == K_STORE_SUBSCR:
                        index = stack.pop()
                        container = stack.pop()
                        value = stack.pop()
                        cls = container.__class__
                        if cls is SimList or cls is SimDict:
                            container.setitem(index, value)
                        else:
                            self._op_store_subscr(thread, container, index, value)
                    elif kind == K_LOAD_ATTR:
                        obj = stack[-1]
                        c = entry[4]
                        if c[0] is obj:
                            stack[-1] = c[1]
                        else:
                            value = self._op_load_attr(obj, entry[1])
                            stack[-1] = value
                            # Cache only memoized bound methods on heap-backed
                            # receivers: those are immutable per instance, so
                            # the identity guard can never serve a stale value
                            # (computed attributes and native-module attrs are
                            # re-resolved every time).
                            if value.__class__ is BoundMethod and isinstance(obj, HeapBacked):
                                c[0] = obj
                                c[1] = value
                    elif kind == K_RETURN_VALUE:
                        retval = stack.pop()
                        frame.pc = pc
                        frame.lasti = pc - 1
                        if ops_done:
                            thread.cpu_time += ops_done * op_cost
                            self.instruction_count += ops_done
                            ops_done = 0
                        if gt_ops:
                            ground_truth.record_python_time(thread, gt_ops * op_cost)
                            gt_ops = 0
                        if trace_active:
                            trace.fire(thread, frame, tracing.EVENT_RETURN, retval)
                        self._teardown_frame(frame, retval, thread)
                        caller = frame.back
                        thread.frame = caller
                        if caller is None:
                            thread.result = retval
                            self.flush_churn(thread)
                            signals.poll()
                            return FINISHED
                        caller.stack.append(retval)
                        frame = caller
                        trace_active = trace.active
                        if pending and is_main:
                            signals.deliver_pending(thread)
                            trace_active = trace.active
                        next_cpu_dl, nwd = signals.next_deadlines()
                        next_wall_dl = nwd if nwd < wall_deadline else wall_deadline
                        if clock._wall >= wall_deadline:
                            signals.poll()
                            return PREEMPTED
                        break  # re-hoist the caller frame
                    elif kind == K_POP_TOP:
                        release_temp(stack.pop())
                    elif kind == K_GET_ITER:
                        stack.append(sim_iter(stack.pop()))
                    elif kind == K_BUILD_LIST:
                        count = entry[1]
                        items = stack[len(stack) - count :] if count else []
                        del stack[len(stack) - count :]
                        stack.append(SimList(mem, list(items), thread))
                    elif kind == K_BUILD_TUPLE:
                        count = entry[1]
                        items = tuple(stack[len(stack) - count :]) if count else ()
                        del stack[len(stack) - count :]
                        stack.append(items)
                    elif kind == K_LIST_APPEND:
                        value = stack.pop()
                        accumulator = stack[-entry[1]]
                        if not isinstance(accumulator, SimList):
                            raise VMError("LIST_APPEND target is not a list")
                        accumulator.append(value)  # append increfs heap-backed values
                    else:
                        handler = cold[kind]
                        if handler is None:  # pragma: no cover - table is complete
                            raise VMError(f"unknown opcode kind {kind}")
                        pc = handler(thread, frame, entry, pc)

                    # ---- eval breaker: timer deadlines & preemption -------
                    if cpu >= next_cpu_dl or wall >= next_wall_dl:
                        signals.poll()
                        if pending and is_main:
                            frame.pc = pc
                            frame.lasti = pc - 1
                            if ops_done:
                                thread.cpu_time += ops_done * op_cost
                                self.instruction_count += ops_done
                                ops_done = 0
                            if gt_ops:
                                ground_truth.record_python_time(thread, gt_ops * op_cost)
                                gt_ops = 0
                            signals.deliver_pending(thread)
                            trace_active = trace.active
                        next_cpu_dl, nwd = signals.next_deadlines()
                        next_wall_dl = nwd if nwd < wall_deadline else wall_deadline
                        if clock._wall >= wall_deadline:
                            frame.pc = pc
                            frame.lasti = pc - 1
                            if ops_done:
                                thread.cpu_time += ops_done * op_cost
                                self.instruction_count += ops_done
                                ops_done = 0
                            if gt_ops:
                                ground_truth.record_python_time(thread, gt_ops * op_cost)
                                gt_ops = 0
                            return PREEMPTED
            except SimRuntimeError:
                frame.pc = pc
                frame.lasti = pc - 1 if pc else 0
                thread.frame = frame
                if ops_done:
                    thread.cpu_time += ops_done * op_cost
                    self.instruction_count += ops_done
                    ops_done = 0
                if gt_ops:
                    ground_truth.record_python_time(thread, gt_ops * op_cost)
                    gt_ops = 0
                handler_frame = self._find_handler_frame(thread)
                if handler_frame is None:
                    signals.poll()
                    raise  # uncaught: propagate with frames intact
                self._unwind_to_handler(thread, handler_frame)
                frame = thread.frame
                trace_active = trace.active
                next_cpu_dl, nwd = signals.next_deadlines()
                next_wall_dl = nwd if nwd < wall_deadline else wall_deadline
                continue

    # -- exception unwinding ----------------------------------------------------

    def _find_handler_frame(self, thread) -> Optional[Frame]:
        """Innermost frame with an active ``try`` block (no teardown)."""
        frame = thread.frame
        while frame is not None:
            if frame.block_stack:
                return frame
            frame = frame.back
        return None

    def _unwind_to_handler(self, thread, handler_frame: Frame) -> None:
        """Tear down frames above ``handler_frame`` and enter its handler."""
        trace = self.process.trace
        frame = thread.frame
        while frame is not handler_frame:
            if trace.active:
                trace.fire(thread, frame, tracing.EVENT_RETURN, None)
            self._teardown_frame(frame, None, thread)
            frame = frame.back
            thread.frame = frame
        handler_pc, depth = handler_frame.block_stack.pop()
        stack = handler_frame.stack
        while len(stack) > depth:
            release_temp(stack.pop())
        handler_frame.pc = handler_pc
        handler_frame.lasti = handler_pc

    # -- resume / blocking ----------------------------------------------------------

    def _enter_block(self, thread, block: BlockRequest) -> None:
        block.started_at = self.process.clock.wall
        thread.block = block
        thread.block_location = (
            thread.frame.location() if thread.frame is not None else None
        )
        thread.state = "waiting"

    def _resume_from_block(self, thread) -> Optional[str]:
        """Handle a thread waking from a block; returns a status to bubble
        up (BLOCKED if it re-blocked) or None to continue executing."""
        process = self.process
        block = thread.block
        now = process.clock.wall
        waited = now - block.started_at
        if waited > 0 and process.ground_truth is not None:
            process.ground_truth.record_system_time(
                thread, waited, location=getattr(thread, "block_location", None)
            )
        if waited > 0 and thread.task_record is not None:
            # Exact per-task idle time: every await resume lands here (a
            # re-block resets started_at, so the intervals are disjoint).
            thread.task_record.wait_s += waited
        satisfied = False
        if block.wake_check is not None and block.wake_check():
            satisfied = True
        elif block.deadline is not None and now >= block.deadline - 1e-12:
            satisfied = True

        # Re-entering the interpreter loop: pending signals are delivered
        # now (this is what makes Scalene's timeout-based monkey patches
        # restore signal flow, and what interrupts sleeps).
        if thread.is_main and process.signals.has_pending:
            process.signals.deliver_pending(thread)

        if not satisfied:
            # Woken early (signal interruption): re-block for the remainder.
            block.started_at = process.clock.wall
            thread.block = block
            thread.state = "waiting"
            return BLOCKED

        thread.block = None
        if block.on_wake is not None:
            outcome = block.on_wake()
            if isinstance(outcome, BlockRequest):
                self._enter_block(thread, outcome)
                return BLOCKED
            result = outcome
        else:
            result = None
        thread.frame.stack.append(result)
        thread.state = "runnable"
        return None

    # -- cold opcode handlers ----------------------------------------------------

    def _h_unary(self, thread, frame: Frame, entry, pc: int) -> int:
        stack = frame.stack
        stack.append(self._op_unary(entry[1], stack.pop()))
        return pc

    def _h_jump_if_false_or_pop(self, thread, frame: Frame, entry, pc: int) -> int:
        stack = frame.stack
        if not stack[-1]:
            return entry[1]
        stack.pop()
        return pc

    def _h_jump_if_true_or_pop(self, thread, frame: Frame, entry, pc: int) -> int:
        stack = frame.stack
        if stack[-1]:
            return entry[1]
        stack.pop()
        return pc

    def _h_build_map(self, thread, frame: Frame, entry, pc: int) -> int:
        count = entry[1]
        stack = frame.stack
        data = {}
        if count:
            flat = stack[len(stack) - 2 * count :]
            del stack[len(stack) - 2 * count :]
            for i in range(0, 2 * count, 2):
                data[flat[i]] = flat[i + 1]
        stack.append(SimDict(self.process.mem, data, thread))
        return pc

    def _h_build_slice(self, thread, frame: Frame, entry, pc: int) -> int:
        stack = frame.stack
        if entry[1] == 3:
            step = stack.pop()
        else:
            step = None
        stop = stack.pop()
        start = stack.pop()
        stack.append(slice(start, stop, step))
        return pc

    def _h_unpack_sequence(self, thread, frame: Frame, entry, pc: int) -> int:
        stack = frame.stack
        value = stack.pop()
        items = self._sequence_items(value)
        if len(items) != entry[1]:
            raise SimRuntimeError(
                f"cannot unpack {len(items)} values into {entry[1]} targets"
            )
        for item in reversed(items):
            stack.append(item)
        return pc

    def _h_make_function(self, thread, frame: Frame, entry, pc: int) -> int:
        # entry[1] is the pre-resolved CodeObject constant.
        frame.stack.append(SimFunction(entry[1], frame.globals))
        return pc

    def _h_delete_name(self, thread, frame: Frame, entry, pc: int) -> int:
        self._op_delete_name(frame, entry[1])
        return pc

    def _h_nop(self, thread, frame: Frame, entry, pc: int) -> int:
        return pc

    def _h_setup_except(self, thread, frame: Frame, entry, pc: int) -> int:
        block_stack = frame.block_stack
        if block_stack is None:
            block_stack = frame.block_stack = []
        block_stack.append((entry[1], len(frame.stack)))
        return pc

    def _h_pop_block(self, thread, frame: Frame, entry, pc: int) -> int:
        block_stack = frame.block_stack
        if not block_stack:
            raise VMError("POP_BLOCK with no active block")
        block_stack.pop()
        return pc

    # -- opcode helpers ----------------------------------------------------------

    def _op_load_name(self, frame: Frame, name: str):
        if name in frame.locals:
            frame.stack.append(frame.locals[name])
        elif name in frame.globals:
            frame.stack.append(frame.globals[name])
        elif name in self.process.builtins:
            frame.stack.append(self.process.builtins[name])
        else:
            raise SimRuntimeError(f"NameError: name {name!r} is not defined")
        return frame

    @staticmethod
    def _target_namespace(frame: Frame, name: str) -> dict:
        if name in frame.code.global_names:
            return frame.globals
        return frame.locals

    def _op_store_name(self, frame: Frame, name: str, value: Any) -> None:
        namespace = self._target_namespace(frame, name)
        old = namespace.get(name)
        incref(value)
        namespace[name] = value
        if namespace is frame.globals:
            self._globals_version += 1
        if old is not None and old is not value:
            decref(old)

    def _op_delete_name(self, frame: Frame, name: str) -> None:
        namespace = self._target_namespace(frame, name)
        try:
            old = namespace.pop(name)
        except KeyError:
            raise SimRuntimeError(f"NameError: name {name!r} is not defined") from None
        if namespace is frame.globals:
            self._globals_version += 1
        decref(old)

    def _op_binary(self, thread, symbol: str, left: Any, right: Any):
        if hasattr(left, "sim_binop"):
            result = left.sim_binop(self._native_ctx(thread), symbol, right)
        elif hasattr(right, "sim_rbinop"):
            result = right.sim_rbinop(self._native_ctx(thread), symbol, left)
        else:
            fn = _BINARY_FUNCS.get(symbol)
            if fn is None:
                raise VMError(f"unsupported binary operator {symbol!r}")
            try:
                result = fn(left, right)
            except (TypeError, ZeroDivisionError, ValueError) as exc:
                raise SimRuntimeError(f"binary op {symbol!r} failed: {exc}") from None
        release_temp(left)
        if right is not result:
            release_temp(right)
        return result

    def _op_compare(self, symbol: str, left: Any, right: Any):
        if symbol in ("in", "not in"):
            if isinstance(right, SimDict):
                contained = right.contains(left)
            elif isinstance(right, SimList):
                contained = left in right.items
            else:
                try:
                    contained = left in right
                except TypeError as exc:
                    raise SimRuntimeError(f"'in' failed: {exc}") from None
            return contained if symbol == "in" else not contained
        fn = _COMPARE_FUNCS.get(symbol)
        if fn is None:
            raise VMError(f"unsupported comparison {symbol!r}")
        try:
            return fn(left, right)
        except TypeError as exc:
            raise SimRuntimeError(f"comparison {symbol!r} failed: {exc}") from None

    @staticmethod
    def _op_unary(symbol: str, value: Any):
        try:
            if symbol == "-":
                return -value
            if symbol == "+":
                return +value
            if symbol == "not":
                return not value
            if symbol == "~":
                return ~value
        except TypeError as exc:
            raise SimRuntimeError(f"unary {symbol!r} failed: {exc}") from None
        raise VMError(f"unsupported unary operator {symbol!r}")

    def _op_subscr(self, thread, container: Any, index: Any):
        if isinstance(container, SimList):
            return container.getitem(index)
        if isinstance(container, SimDict):
            return container.getitem(index)
        if hasattr(container, "sim_getitem"):
            return container.sim_getitem(self._native_ctx(thread), index)
        try:
            return container[index]
        except (TypeError, KeyError, IndexError) as exc:
            raise SimRuntimeError(f"subscript failed: {exc}") from None

    def _op_store_subscr(self, thread, container: Any, index: Any, value: Any) -> None:
        if isinstance(container, SimList):
            container.setitem(index, value)
        elif isinstance(container, SimDict):
            container.setitem(index, value)
        elif hasattr(container, "sim_setitem"):
            container.sim_setitem(self._native_ctx(thread), index, value)
        else:
            raise SimRuntimeError(
                f"object of type {type(container).__name__} does not support item assignment"
            )

    @staticmethod
    def _sequence_items(value: Any) -> Tuple[Any, ...]:
        if isinstance(value, SimList):
            return tuple(value.items)
        if isinstance(value, (tuple, list)):
            return tuple(value)
        raise SimRuntimeError(f"cannot unpack object of type {type(value).__name__}")

    def _op_load_attr(self, value: Any, name: str):
        if hasattr(value, "sim_getattr"):
            return value.sim_getattr(name)
        raise SimRuntimeError(
            f"object of type {type(value).__name__} has no attribute access"
        )

    # -- calls ----------------------------------------------------------

    def _op_call(self, thread, frame: Frame, call_arg) -> Any:
        """Execute CALL/CALL_METHOD. Returns the call result, a
        BlockRequest, or the _CALL_PUSHED_FRAME sentinel for Python calls."""
        npos, kwnames = call_arg
        stack = frame.stack
        if kwnames:
            nkw = len(kwnames)
            values = stack[-nkw:]
            del stack[-nkw:]
            kwargs = dict(zip(kwnames, values))
        else:
            kwargs = {}
        if npos:
            args = tuple(stack[-npos:])
            del stack[-npos:]
        else:
            args = ()
        callee = stack.pop()

        if isinstance(callee, SimFunction):
            if kwargs:
                raise SimRuntimeError(
                    "keyword arguments to simulated functions are not supported"
                )
            new_frame = self.make_frame(callee, args, thread, back=frame)
            thread.frame = new_frame
            trace = self.process.trace
            if trace.active:
                trace.fire(thread, new_frame, tracing.EVENT_CALL)
            return _CALL_PUSHED_FRAME

        trace = self.process.trace
        ctx = self._native_ctx(thread)
        if isinstance(callee, NativeFunction):
            is_crossing = callee.module is not None
        elif isinstance(callee, BoundMethod):
            # Methods on native-domain values (arrays, series, tensors)
            # cross the boundary; SimList/SimDict methods do not.
            is_crossing = getattr(callee.receiver, "native_domain", False)
        else:
            raise SimRuntimeError(
                f"object of type {type(callee).__name__} is not callable"
            )
        if trace.active:
            trace.fire(thread, frame, tracing.EVENT_C_CALL, callee.name)
        if is_crossing:
            # Fixed per-crossing cost (argument marshalling / call glue),
            # charged as native time so every clock view stays consistent,
            # then the in-call native work measured as a cpu-time delta.
            overhead_s = self.config.crossing_overhead_ops * self.config.op_cost
            ctx.consume(overhead_s)
            entered_at = thread.cpu_time
            result = callee.fn(ctx, args, kwargs)
            self.process.crossings.record_call(
                frame.code.filename,
                frame.lineno,
                overhead_s,
                thread.cpu_time - entered_at,
            )
            ground_truth = self.process.ground_truth
            if ground_truth is not None:
                ground_truth.record_native_call(thread)
        else:
            result = callee.fn(ctx, args, kwargs)

        if isinstance(result, BlockRequest):
            # Keep trace call/return events balanced: fire c_return at the
            # moment of blocking (deterministic tracers then measure the
            # CPU-side cost of the call, not the wait — as in CPython,
            # where the C function returns only after the wait, but our
            # tracers read the CPU clock, which does not advance while
            # blocked).
            if trace.active:
                trace.fire(thread, frame, tracing.EVENT_C_RETURN, callee.name)
            return result
        for arg in args:
            release_temp(arg)
        if kwargs:
            for value in kwargs.values():
                release_temp(value)
        # A floating receiver (e.g. ``make()[0:10].tolist()``) dies with
        # the call unless the result depends on it.
        if isinstance(callee, BoundMethod) and callee.receiver is not result:
            release_temp(callee.receiver)
        if trace.active:
            trace.fire(thread, frame, tracing.EVENT_C_RETURN, callee.name)
        return result
