"""A pymalloc-style Python object allocator.

Reproduces the two behaviours of CPython's object allocator that matter to
the paper:

* **Small objects** (≤ 512 bytes) are carved from *pools* inside 256 KiB
  *arenas* obtained from the system allocator. Allocating and freeing small
  objects therefore generates almost no system-allocator traffic — only
  occasional arena mappings — which is why Scalene must interpose at the
  PyMem level (``PyMem_SetAllocator``) in addition to the system level.
* **Large objects** fall through directly to the system allocator.

The arena and large-object requests are issued through the shim under its
in-allocator flag, so they are invisible to listeners (no double counting,
§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import HeapError
from repro.memory.shim import AllocatorShim
from repro.memory.sysalloc import Allocation

SMALL_THRESHOLD = 512
ARENA_SIZE = 256 * 1024
#: Fraction of an arena usable for object data (the rest models pool
#: headers and fragmentation).
ARENA_USABLE_FRACTION = 0.9


#: Usable bytes contributed by one arena (float, as in the capacity math).
_USABLE_PER_ARENA = ARENA_SIZE * ARENA_USABLE_FRACTION


@dataclass(slots=True)
class PyAllocation:
    """A live Python-object allocation handle."""

    address: int
    nbytes: int
    #: "small" (pool-backed) or "large" (system-backed).
    kind: str
    #: For large allocations, the underlying system allocation.
    backing: Optional[Allocation] = None


class PyMalloc:
    """Pool/arena object allocator layered over the (shimmed) system heap."""

    def __init__(self, shim: AllocatorShim) -> None:
        self._shim = shim
        self._arenas: List[Allocation] = []
        self._small_in_use = 0
        # Cached _usable_capacity(); recomputed whenever _arenas changes so
        # the hot alloc/free paths avoid a method call and float multiply.
        self._usable = 0
        self._live: Dict[int, PyAllocation] = {}
        self._next_address = 0x5500_0000_0000
        # Statistics.
        self.total_allocs = 0
        self.total_frees = 0
        self.total_bytes_allocated = 0
        self.total_bytes_freed = 0

    # -- capacity management -----------------------------------------------------

    def _usable_capacity(self) -> int:
        return self._usable

    def _ensure_capacity(self, nbytes: int, thread) -> None:
        while self._small_in_use + nbytes > self._usable:
            # Arena mappings are internal allocator work: flag them so shim
            # listeners do not misattribute them as native program activity.
            shim = self._shim
            token = shim.enter_allocator(thread)
            try:
                arena = shim.malloc(ARENA_SIZE, thread=thread, touch=True, tag="arena")
            finally:
                shim.exit_allocator(token)
            self._arenas.append(arena)
            self._usable = int(len(self._arenas) * _USABLE_PER_ARENA)

    def _maybe_release_arenas(self, thread) -> None:
        # Release trailing arenas once usage drops by more than two arenas'
        # worth of slack (mirrors pymalloc's lazy arena reclamation).
        while (
            len(self._arenas) > 1
            and self._small_in_use < self._usable - 2 * _USABLE_PER_ARENA
        ):
            arena = self._arenas.pop()
            self._usable = int(len(self._arenas) * _USABLE_PER_ARENA)
            shim = self._shim
            token = shim.enter_allocator(thread)
            try:
                shim.free(arena, thread=thread)
            finally:
                shim.exit_allocator(token)

    # -- allocation API -----------------------------------------------------

    def alloc(self, nbytes: int, thread=None) -> PyAllocation:
        """Allocate a Python object of ``nbytes``."""
        if nbytes < 0:
            raise HeapError(f"pymalloc alloc of negative size {nbytes}")
        self.total_allocs += 1
        self.total_bytes_allocated += nbytes
        if nbytes <= SMALL_THRESHOLD:
            if self._small_in_use + nbytes > self._usable:
                self._ensure_capacity(nbytes, thread)
            self._small_in_use += nbytes
            address = self._next_address
            self._next_address = address + (nbytes if nbytes > 16 else 16)
            py_alloc = PyAllocation(address, nbytes, "small")
        else:
            shim = self._shim
            token = shim.enter_allocator(thread)
            try:
                backing = shim.malloc(nbytes, thread=thread, touch=True, tag="pyobj-large")
            finally:
                shim.exit_allocator(token)
            py_alloc = PyAllocation(backing.address, nbytes, "large", backing)
        self._live[py_alloc.address] = py_alloc
        return py_alloc

    def free(self, py_alloc: PyAllocation, thread=None) -> None:
        """Release a Python object allocation."""
        live = self._live.pop(py_alloc.address, None)
        if live is None:
            raise HeapError(f"pymalloc double free at {py_alloc.address:#x}")
        nbytes = py_alloc.nbytes
        self.total_frees += 1
        self.total_bytes_freed += nbytes
        if py_alloc.kind == "small":
            in_use = self._small_in_use - nbytes
            self._small_in_use = in_use
            if len(self._arenas) > 1 and in_use < self._usable - 2 * _USABLE_PER_ARENA:
                self._maybe_release_arenas(thread)
        else:
            assert py_alloc.backing is not None
            shim = self._shim
            token = shim.enter_allocator(thread)
            try:
                shim.free(py_alloc.backing, thread=thread)
            finally:
                shim.exit_allocator(token)

    # -- introspection -----------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Bytes currently held by live Python objects."""
        return self.total_bytes_allocated - self.total_bytes_freed

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def arena_count(self) -> int:
        return len(self._arenas)
