"""The PyMem observing wrapper and the shim's in-allocator flag rule.

:class:`ObservingAllocator` is the one ``PyMem_SetAllocator`` wrapper that
Scalene and the interposing baselines install. It reports each event to an
``on_alloc``/``on_free`` callback and guards the delegated call with the
shim's flag inline, by the rule of ``enter_allocator``/``exit_allocator``
(keyed by thread ident, or None; only the outermost guard clears it). The
last test pins how many Python frames one allocation event costs.
"""

from __future__ import annotations

import sys

import pytest

from repro import SimProcess
from repro.core import Scalene
from repro.errors import HeapError
from repro.memory.hooks import ObservingAllocator, PyMemHooks
from repro.memory.pymalloc import ARENA_SIZE, SMALL_THRESHOLD, PyAllocation, PyMalloc
from repro.memory.shim import AllocatorShim, ShimListener
from repro.memory.sysalloc import SystemAllocator


class Thread:
    def __init__(self, ident):
        self.ident = ident


class Published(ShimListener):
    def __init__(self):
        self.events = []

    def on_malloc(self, event):
        self.events.append(("malloc", event.nbytes))

    def on_free(self, event):
        self.events.append(("free", event.nbytes))


class Observed:
    """Records a wrapper's callbacks as (signed bytes, address) pairs."""

    def __init__(self):
        self.events = []

    def on_alloc(self, nbytes, address, thread):
        self.events.append((nbytes, address))

    def on_free(self, nbytes, address, thread):
        self.events.append((-nbytes, address))

    def wrap(self, inner, shim):
        return ObservingAllocator(self.on_alloc, self.on_free, inner, shim)


class RawAllocator:
    """An inner allocator that backs every object with its own system
    allocation and holds no guard itself: only the wrapper's flag keeps
    that traffic from being published."""

    def __init__(self, shim):
        self._shim = shim
        self._backing = {}

    def alloc(self, nbytes, thread=None):
        backing = self._shim.malloc(nbytes, thread=thread, tag="raw")
        self._backing[backing.address] = backing
        return PyAllocation(backing.address, nbytes, "large", backing)

    def free(self, handle, thread=None):
        self._shim.free(self._backing.pop(handle.address), thread=thread)


@pytest.fixture
def shim():
    return AllocatorShim(SystemAllocator(base_rss_bytes=0))


def test_inner_allocator_error_releases_the_flag(shim):
    wrapper = Observed().wrap(PyMalloc(shim), shim)
    thread = Thread(7)
    handle = wrapper.alloc(64, thread)
    wrapper.free(handle, thread)
    with pytest.raises(HeapError):
        wrapper.free(handle, thread)  # double free raised under the guard
    assert not shim.in_allocator(thread)
    assert not shim.flagged


@pytest.mark.parametrize("inner", ["pymalloc", "raw"])
def test_stacked_wrappers_see_each_event_once(shim, inner):
    published = Published()
    shim.add_listener(published)
    pymalloc = PyMalloc(shim)
    hooks = PyMemHooks(pymalloc)
    base = pymalloc if inner == "pymalloc" else RawAllocator(shim)
    inner_seen, outer_seen = Observed(), Observed()
    hooks.set_allocator(inner_seen.wrap(base, shim))
    hooks.set_allocator(outer_seen.wrap(hooks.get_allocator(), shim))
    thread = Thread(3)
    # Enough small objects to grow pymalloc past its first arena, plus
    # objects large enough to be backed by the system allocator.
    sizes = [SMALL_THRESHOLD] * (2 * ARENA_SIZE // SMALL_THRESHOLD) + [4 * SMALL_THRESHOLD] * 8
    handles = [hooks.alloc(n, thread) for n in sizes]
    if inner == "pymalloc":
        assert pymalloc.arena_count > 1
    for handle in handles:
        hooks.free(handle, thread)

    expected = [(n, h.address) for n, h in zip(sizes, handles)]
    expected += [(-n, h.address) for n, h in zip(sizes, handles)]
    assert outer_seen.events == expected
    assert inner_seen.events == expected
    assert published.events == []  # arena growth and backing stay silent
    assert shim.suppressed_events > 0
    assert not shim.flagged


def test_nested_guards_keep_the_flag_until_the_outermost_exits(shim):
    thread = Thread(5)
    seen = []

    class Spy:
        def alloc(self, nbytes, thread=None):
            seen.append(shim.in_allocator(thread))
            return PyAllocation(0x10, nbytes, "small")

        def free(self, handle, thread=None):
            seen.append(shim.in_allocator(thread))

    inner = Observed().wrap(Spy(), shim)
    outer = Observed().wrap(inner, shim)
    guard = shim.enter_allocator(thread)
    handle = outer.alloc(16, thread)
    assert shim.in_allocator(thread)  # the wrappers left the outer guard's flag
    outer.free(handle, thread)
    assert shim.in_allocator(thread)
    assert not shim.in_allocator(None)  # None is its own key
    shim.exit_allocator(guard)
    assert not shim.in_allocator(thread)

    token = shim.enter_allocator(thread)
    nested = shim.enter_allocator(thread)
    shim.exit_allocator(nested)
    assert shim.in_allocator(thread)  # only the outermost guard clears it
    outer.alloc(16, thread)
    assert shim.in_allocator(thread)
    shim.exit_allocator(token)
    assert not shim.in_allocator(thread)

    outer.free(outer.alloc(16, None), None)
    assert seen == [True] * 5
    assert not shim.flagged


def _calls(fn, *args):
    """Call ``fn(*args)``; return its result and the Python functions it
    entered (``fn`` included), leaving out ``PyAllocation``'s constructor."""
    constructor = PyAllocation.__init__.__code__
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is not constructor:
            names.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, names


@pytest.mark.parametrize("mode,alloc_calls,free_calls", [(None, 2, 2), ("full", 5, 5)])
def test_python_frames_per_allocation_event(mode, alloc_calls, free_calls):
    """One observed alloc or free is one pass through MemSubsystem, the
    wrapper and pymalloc plus one observer frame (and the clock advance);
    with no profiler it is MemSubsystem and pymalloc alone."""
    process = SimProcess("x = 1\n", filename="p.py")
    if mode is not None:
        Scalene(process, mode=mode).start()
    mem, thread = process.mem, process.main_thread
    mem.py_free(mem.py_alloc(32, thread), thread)  # pymalloc's first arena
    handle, on_alloc = _calls(mem.py_alloc, 32, thread)
    _, on_free = _calls(mem.py_free, handle, thread)
    assert len(on_alloc) <= alloc_calls, on_alloc
    assert len(on_free) <= free_calls, on_free
    if mode is None:
        assert (on_alloc, on_free) == (["py_alloc", "alloc"], ["py_free", "free"])
    else:
        assert on_alloc.count("observe_alloc") == 1 and on_free.count("observe_free") == 1
