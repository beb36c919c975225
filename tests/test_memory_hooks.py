"""The PyMem observing wrapper and the shim's in-allocator flag rule.

:class:`ObservingAllocator` is the one ``PyMem_SetAllocator`` wrapper that
Scalene and the interposing baselines install. It guards the delegated
call with the shim's flag through an inline try/finally; the flag rule
(keyed by thread ident, or None; only the outermost guard clears it) is
the shim's, shared with ``allocator_guard``.
"""

from __future__ import annotations

import pytest

from repro.errors import HeapError
from repro.memory.hooks import ObservingAllocator, PyMemHooks
from repro.memory.pymalloc import ARENA_SIZE, SMALL_THRESHOLD, PyAllocation, PyMalloc
from repro.memory.shim import DOMAIN_PYTHON, AllocatorShim, ShimListener
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
    def __init__(self):
        self.events = []

    def __call__(self, signed_bytes, domain, address, thread):
        assert domain == DOMAIN_PYTHON
        self.events.append((signed_bytes, address))


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
    wrapper = ObservingAllocator(Observed(), PyMalloc(shim), shim)
    thread = Thread(7)
    handle = wrapper.alloc(64, thread)
    wrapper.free(handle, thread)
    with pytest.raises(HeapError):
        wrapper.free(handle, thread)  # double free raised under the guard
    assert not shim.in_allocator(thread)
    assert not shim._in_allocator


@pytest.mark.parametrize("inner", ["pymalloc", "raw"])
def test_stacked_wrappers_see_each_event_once(shim, inner):
    published = Published()
    shim.add_listener(published)
    pymalloc = PyMalloc(shim)
    hooks = PyMemHooks(pymalloc)
    base = pymalloc if inner == "pymalloc" else RawAllocator(shim)
    inner_seen, outer_seen = Observed(), Observed()
    hooks.set_allocator(ObservingAllocator(inner_seen, base, shim))
    hooks.set_allocator(ObservingAllocator(outer_seen, hooks.get_allocator(), shim))
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
    assert not shim._in_allocator


def test_nested_guards_keep_the_flag_until_the_outermost_exits(shim):
    thread = Thread(5)
    seen = []

    class Spy:
        def alloc(self, nbytes, thread=None):
            seen.append(shim.in_allocator(thread))
            return PyAllocation(0x10, nbytes, "small")

        def free(self, handle, thread=None):
            seen.append(shim.in_allocator(thread))

    inner = ObservingAllocator(Observed(), Spy(), shim)
    outer = ObservingAllocator(Observed(), inner, shim)
    with shim.allocator_guard(thread):
        handle = outer.alloc(16, thread)
        assert shim.in_allocator(thread)  # the wrappers left the outer guard's flag
        outer.free(handle, thread)
        assert shim.in_allocator(thread)
        assert not shim.in_allocator(None)  # None is its own key
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
    assert not shim._in_allocator
