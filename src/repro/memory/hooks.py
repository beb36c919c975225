"""The ``PyMem_SetAllocator`` analog.

Every Python-object allocation the interpreter performs goes through a
:class:`PyMemHooks` instance. A profiler may *wrap* the current allocator
(exactly what Scalene does with ``PyMem_SetAllocator``): the wrapper
observes each request, then delegates to the previous allocator.
:class:`ObservingAllocator` is that wrapper, shared by Scalene and the
interposing memory baselines.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.memory.pymalloc import PyAllocation, PyMalloc
from repro.memory.shim import AllocatorShim


class PyMemAllocator(Protocol):
    """The allocator interface installable via :class:`PyMemHooks`."""

    def alloc(self, nbytes: int, thread=None) -> PyAllocation:  # pragma: no cover
        ...

    def free(self, handle: PyAllocation, thread=None) -> None:  # pragma: no cover
        ...


class PyMemHooks:
    """Replaceable dispatch point for the interpreter's object allocations."""

    def __init__(self, pymalloc: PyMalloc) -> None:
        self._default = pymalloc
        self._current: PyMemAllocator = pymalloc

    # -- PyMem_GetAllocator / PyMem_SetAllocator -------------------------------

    def get_allocator(self) -> PyMemAllocator:
        """Return the currently installed allocator (for wrapping)."""
        return self._current

    def set_allocator(self, allocator: PyMemAllocator) -> None:
        """Install ``allocator`` as the Python object allocator."""
        self._current = allocator

    def reset(self) -> None:
        """Restore the default (pymalloc) allocator."""
        self._current = self._default

    # -- interpreter-facing API -------------------------------

    def alloc(self, nbytes: int, thread=None) -> PyAllocation:
        return self._current.alloc(nbytes, thread=thread)

    def free(self, handle: PyAllocation, thread=None) -> None:
        self._current.free(handle, thread=thread)

    @property
    def pymalloc(self) -> PyMalloc:
        """The underlying default allocator (for statistics)."""
        return self._default


class ObservingAllocator:
    """A ``PyMem_SetAllocator`` wrapper. ``on_alloc(nbytes, address,
    thread)`` sees every allocation after it succeeds and ``on_free(nbytes,
    address, thread)`` every free before it happens; the request is
    delegated to the previous allocator under the shim's in-allocator flag,
    so the system traffic it causes (arena growth, large-object backing) is
    not counted twice.

    One event is one frame here plus the callback's: the flag is set and
    cleared inline, by the rule of :meth:`AllocatorShim.enter_allocator`
    (keyed by the thread's ident or None; only the outermost guard on a key
    clears it), in a try/finally.
    """

    __slots__ = ("_on_alloc", "_on_free", "_inner", "_flagged")

    def __init__(
        self, on_alloc: Callable, on_free: Callable, inner: PyMemAllocator, shim: AllocatorShim
    ) -> None:
        self._on_alloc = on_alloc
        self._on_free = on_free
        self._inner = inner
        self._flagged = shim.flagged

    def alloc(self, nbytes: int, thread=None) -> PyAllocation:
        key = getattr(thread, "ident", None)
        flagged = self._flagged
        outermost = key not in flagged
        if outermost:
            flagged.add(key)
        try:
            handle = self._inner.alloc(nbytes, thread)
        finally:
            if outermost:
                flagged.discard(key)
        self._on_alloc(nbytes, handle.address, thread)
        return handle

    def free(self, handle: PyAllocation, thread=None) -> None:
        self._on_free(handle.nbytes, handle.address, thread)
        key = getattr(thread, "ident", None)
        flagged = self._flagged
        outermost = key not in flagged
        if outermost:
            flagged.add(key)
        try:
            self._inner.free(handle, thread)
        finally:
            if outermost:
                flagged.discard(key)
