"""LD_PRELOAD-style allocator interposition ("the shim", paper §3.1).

Every system-allocator call in the simulated process flows through an
:class:`AllocatorShim`. Profilers subscribe listeners to observe
``malloc``/``free``/``memcpy`` events; the shim itself adds no policy.

The shim implements the paper's *in-allocator flag*: a per-thread marker
set while execution is inside a memory allocator (for instance, while the
Python object allocator services a request and calls down into the system
allocator for a fresh arena). Events raised while the flag is set are
passed through to the underlying allocator but **not** published to
listeners, which both prevents double counting and lets profiler code
allocate memory without infinite recursion.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.memory.sysalloc import Allocation, SystemAllocator

DOMAIN_PYTHON = "python"
DOMAIN_NATIVE = "native"

#: enter_allocator's token for a guard nested inside another on its key.
_NESTED = object()


@dataclass
class AllocEvent:
    """A single allocation or free observed by the shim."""

    kind: str  # "malloc" | "free"
    nbytes: int
    address: int
    domain: str  # DOMAIN_PYTHON | DOMAIN_NATIVE
    thread: object  # SimThread or None
    wall: float
    cpu: float


@dataclass
class MemcpyEvent:
    """A single ``memcpy`` observed by the shim (feeds copy volume, §3.5)."""

    nbytes: int
    thread: object
    wall: float
    #: Optional annotation for cross-device copies ("h2d", "d2h", "host").
    direction: str = "host"


class ShimListener:
    """Interface profilers implement to observe shim traffic.

    The default implementations ignore everything, so a listener may
    override only what it needs.
    """

    def on_malloc(self, event: AllocEvent) -> None:  # pragma: no cover
        pass

    def on_free(self, event: AllocEvent) -> None:  # pragma: no cover
        pass

    def on_memcpy(self, event: MemcpyEvent) -> None:  # pragma: no cover
        pass


class AllocatorShim:
    """Interposes on the simulated system allocator.

    Also acts as the central event bus for *Python-domain* allocation
    events: the profiler's PyMem wrapper publishes its observations through
    :meth:`publish_python_event` so that a single listener surface sees the
    whole allocation stream with domain tags, as Scalene's C++ shim does.
    """

    def __init__(self, sysalloc: SystemAllocator, clock=None) -> None:
        self._sysalloc = sysalloc
        self._clock = clock
        self._listeners: List[ShimListener] = []
        # Thread identities (or the sentinel None) currently inside an
        # allocator; see the class docstring.
        self._in_allocator: set = set()
        #: Events suppressed because the in-allocator flag was set.
        self.suppressed_events = 0

    # -- listener management ---------------------------------------------------

    def add_listener(self, listener: ShimListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: ShimListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def has_listeners(self) -> bool:
        return bool(self._listeners)

    # -- the in-allocator flag ---------------------------------------------------

    def enter_allocator(self, thread=None) -> object:
        """Set ``thread``'s in-allocator flag; return the token to pass to
        :meth:`exit_allocator`.

        The flag rule, written once: the key is the thread's ident (None
        for no thread), and only the outermost guard on a key clears it —
        a nested enter returns a sentinel that is never a key.
        """
        key = getattr(thread, "ident", None)
        flags = self._in_allocator
        if key in flags:
            return _NESTED
        flags.add(key)
        return key

    def exit_allocator(self, token: object) -> None:
        """Undo the :meth:`enter_allocator` that returned ``token``."""
        self._in_allocator.discard(token)

    @contextmanager
    def allocator_guard(self, thread=None) -> Iterator[None]:
        """Mark ``thread`` as being inside a memory allocator (re-entrant)."""
        token = self.enter_allocator(thread)
        try:
            yield
        finally:
            self.exit_allocator(token)

    def in_allocator(self, thread=None) -> bool:
        """Whether ``thread``'s flag is set (keyed as in enter_allocator)."""
        return getattr(thread, "ident", None) in self._in_allocator

    # -- system allocator surface --------------------------------------------------

    def malloc(
        self,
        nbytes: int,
        *,
        thread=None,
        touch: bool = False,
        tag: str = "",
        domain: str = DOMAIN_NATIVE,
    ) -> Allocation:
        """Allocate from the system allocator, publishing a malloc event."""
        alloc = self._sysalloc.malloc(nbytes, touch=touch, tag=tag)
        if self._listeners:  # skip event construction on the silent path
            self._publish(
                "on_malloc",
                AllocEvent(
                    kind="malloc",
                    nbytes=nbytes,
                    address=alloc.address,
                    domain=domain,
                    thread=thread,
                    wall=self._wall(),
                    cpu=self._cpu(),
                ),
                thread,
            )
        return alloc

    def free(self, alloc: Allocation, *, thread=None, domain: str = DOMAIN_NATIVE) -> None:
        """Free to the system allocator, publishing a free event."""
        self._sysalloc.free(alloc)
        if self._listeners:  # skip event construction on the silent path
            self._publish(
                "on_free",
                AllocEvent(
                    kind="free",
                    nbytes=alloc.nbytes,
                    address=alloc.address,
                    domain=domain,
                    thread=thread,
                    wall=self._wall(),
                    cpu=self._cpu(),
                ),
                thread,
            )

    def memcpy(self, nbytes: int, *, thread=None, direction: str = "host") -> None:
        """Record a memcpy of ``nbytes`` (the copy itself is abstract)."""
        if self._listeners:  # skip event construction on the silent path
            self._publish(
                "on_memcpy",
                MemcpyEvent(nbytes=nbytes, thread=thread, wall=self._wall(), direction=direction),
                thread,
            )

    # -- python-domain pass-through ---------------------------------------------------

    def publish_python_event(self, event: AllocEvent) -> None:
        """Publish an event observed at the PyMem hook level.

        The caller (a profiler's PyMem wrapper) is responsible for holding
        :meth:`allocator_guard` while delegating to the real allocator so
        the resulting system traffic is suppressed here.
        """
        self._publish("on_malloc" if event.kind == "malloc" else "on_free", event, event.thread)

    # -- internals ---------------------------------------------------

    def _publish(self, method: str, event, thread) -> None:
        if not self._listeners:
            return
        if self.in_allocator(thread):
            self.suppressed_events += 1
            return
        for listener in self._listeners:
            getattr(listener, method)(event)

    def _wall(self) -> float:
        return self._clock.wall if self._clock is not None else 0.0

    def _cpu(self) -> float:
        return self._clock.cpu if self._clock is not None else 0.0

    # convenience passthroughs used by upper layers ------------------------------

    def touch(self, alloc: Allocation, nbytes: Optional[int] = None) -> None:
        self._sysalloc.touch(alloc, nbytes)

    @property
    def sysalloc(self) -> SystemAllocator:
        return self._sysalloc
