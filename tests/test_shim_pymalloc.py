"""Tests for the allocator shim (in-allocator flag) and pymalloc layering."""

import pytest

from repro.errors import HeapError
from repro.memory.pymalloc import ARENA_SIZE, SMALL_THRESHOLD, PyMalloc
from repro.memory.shim import DOMAIN_NATIVE, AllocatorShim, ShimListener
from repro.memory.sysalloc import SystemAllocator
from repro.runtime.clock import VirtualClock


class Recorder(ShimListener):
    def __init__(self):
        self.mallocs = []
        self.frees = []
        self.memcpys = []

    def on_malloc(self, event):
        self.mallocs.append(event)

    def on_free(self, event):
        self.frees.append(event)

    def on_memcpy(self, event):
        self.memcpys.append(event)


@pytest.fixture
def shim():
    return AllocatorShim(SystemAllocator(base_rss_bytes=0), VirtualClock())


def test_listener_sees_malloc_and_free(shim):
    recorder = Recorder()
    shim.add_listener(recorder)
    a = shim.malloc(1000)
    shim.free(a)
    assert len(recorder.mallocs) == 1
    assert recorder.mallocs[0].nbytes == 1000
    assert recorder.mallocs[0].domain == DOMAIN_NATIVE
    assert len(recorder.frees) == 1
    assert recorder.frees[0].address == a.address


def test_in_allocator_flag_suppresses_events(shim):
    """§3.1: traffic from inside an allocator must not be double counted."""
    recorder = Recorder()
    shim.add_listener(recorder)
    token = shim.enter_allocator()
    a = shim.malloc(1000)
    shim.free(a)
    shim.exit_allocator(token)
    assert recorder.mallocs == []
    assert recorder.frees == []
    assert shim.suppressed_events == 2


def test_guard_is_per_thread(shim):
    class T:
        def __init__(self, ident):
            self.ident = ident

    recorder = Recorder()
    shim.add_listener(recorder)
    t1, t2 = T(1), T(2)
    token = shim.enter_allocator(t1)
    shim.malloc(10, thread=t2)  # other thread: still published
    shim.malloc(10, thread=t1)  # guarded thread: suppressed
    shim.exit_allocator(token)
    assert len(recorder.mallocs) == 1


def test_guard_nesting(shim):
    outer = shim.enter_allocator()
    inner = shim.enter_allocator()
    assert shim.in_allocator()
    shim.exit_allocator(inner)
    assert shim.in_allocator()  # outer guard still active
    shim.exit_allocator(outer)
    assert not shim.in_allocator()


def test_memcpy_event(shim):
    recorder = Recorder()
    shim.add_listener(recorder)
    shim.memcpy(4096, direction="h2d")
    assert recorder.memcpys[0].nbytes == 4096
    assert recorder.memcpys[0].direction == "h2d"


def test_remove_listener(shim):
    recorder = Recorder()
    shim.add_listener(recorder)
    shim.remove_listener(recorder)
    shim.malloc(10)
    assert recorder.mallocs == []
    shim.remove_listener(recorder)  # idempotent


# -- pymalloc -----------------------------------------------------------------


def test_small_allocations_come_from_arenas():
    sysalloc = SystemAllocator(base_rss_bytes=0)
    shim = AllocatorShim(sysalloc)
    pym = PyMalloc(shim)
    handles = [pym.alloc(64) for _ in range(100)]
    # 100 * 64 bytes fits in one arena.
    assert pym.arena_count == 1
    assert sysalloc.mapped_bytes() == ARENA_SIZE
    for h in handles:
        pym.free(h)
    assert pym.live_bytes == 0


def test_large_allocation_falls_through_to_system():
    sysalloc = SystemAllocator(base_rss_bytes=0)
    shim = AllocatorShim(sysalloc)
    pym = PyMalloc(shim)
    h = pym.alloc(SMALL_THRESHOLD + 1)
    assert h.kind == "large"
    assert sysalloc.mapped_bytes() >= SMALL_THRESHOLD + 1
    pym.free(h)
    assert sysalloc.mapped_bytes() == 0


def test_arena_requests_are_suppressed_from_listeners():
    """Arena mappings are internal work, invisible to shim listeners."""
    sysalloc = SystemAllocator(base_rss_bytes=0)
    shim = AllocatorShim(sysalloc)
    recorder = Recorder()
    shim.add_listener(recorder)
    pym = PyMalloc(shim)
    pym.alloc(64)
    assert recorder.mallocs == []  # the arena malloc was guarded


def test_arena_growth_and_release():
    sysalloc = SystemAllocator(base_rss_bytes=0)
    shim = AllocatorShim(sysalloc)
    pym = PyMalloc(shim)
    handles = [pym.alloc(512) for _ in range(2000)]  # ~1 MB of smalls
    grown = pym.arena_count
    assert grown >= 4
    for h in handles:
        pym.free(h)
    assert pym.arena_count < grown


def test_pymalloc_double_free_raises():
    pym = PyMalloc(AllocatorShim(SystemAllocator()))
    h = pym.alloc(64)
    pym.free(h)
    with pytest.raises(HeapError):
        pym.free(h)


def test_pymalloc_negative_alloc_raises():
    pym = PyMalloc(AllocatorShim(SystemAllocator()))
    with pytest.raises(HeapError):
        pym.alloc(-5)


def test_live_bytes_accounting():
    pym = PyMalloc(AllocatorShim(SystemAllocator()))
    h1 = pym.alloc(100)
    h2 = pym.alloc(10_000)
    assert pym.live_bytes == 10_100
    pym.free(h1)
    assert pym.live_bytes == 10_000
    pym.free(h2)
    assert pym.live_bytes == 0
