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
from repro.memory.shim import DOMAIN_PYTHON, AllocatorShim


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
    """A ``PyMem_SetAllocator`` wrapper: ``observe(signed_bytes, domain,
    address, thread)`` sees every allocation (+) after it succeeds and
    every free (-) before it happens, and the request is delegated to the
    previous allocator under the shim's in-allocator flag, so the system
    traffic it causes (arena growth, large-object backing) is not counted
    twice. The guard is an inline try/finally: a generator context manager
    per event costs more than the rest of the wrapper.
    """

    __slots__ = ("_observe", "_inner", "_enter", "_exit")

    def __init__(self, observe: Callable, inner: PyMemAllocator, shim: AllocatorShim) -> None:
        self._observe = observe
        self._inner = inner
        self._enter = shim.enter_allocator
        self._exit = shim.exit_allocator

    def alloc(self, nbytes: int, thread=None) -> PyAllocation:
        token = self._enter(thread)
        try:
            handle = self._inner.alloc(nbytes, thread=thread)
        finally:
            self._exit(token)
        self._observe(nbytes, DOMAIN_PYTHON, handle.address, thread)
        return handle

    def free(self, handle: PyAllocation, thread=None) -> None:
        self._observe(-handle.nbytes, DOMAIN_PYTHON, handle.address, thread)
        token = self._enter(thread)
        try:
            self._inner.free(handle, thread=thread)
        finally:
            self._exit(token)
