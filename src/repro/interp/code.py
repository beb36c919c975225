"""Code objects and instructions for the simulated interpreter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@dataclass(frozen=True)
class Instruction:
    """One bytecode instruction.

    ``arg`` meaning depends on the opcode: a const index for LOAD_CONST, a
    name for LOAD/STORE_NAME, a jump target index for jumps, an operand
    count for BUILD_*/CALL, an operator string for BINARY_OP/COMPARE_OP.
    ``lineno`` is the 1-based source line the instruction belongs to —
    the unit of attribution for every profiler in this reproduction.
    """

    opcode: str
    arg: Any
    lineno: int


@dataclass
class CodeObject:
    """A compiled function body or module body."""

    name: str
    filename: str
    instructions: List[Instruction] = field(default_factory=list)
    constants: List[Any] = field(default_factory=list)
    #: Parameter names, in order (empty for module code).
    params: Tuple[str, ...] = ()
    #: Names declared ``global`` inside this code object.
    global_names: Tuple[str, ...] = ()
    firstlineno: int = 1
    #: Threaded-dispatch entries precomputed by the VM (see
    #: ``repro.interp.vm``): one ``(kind, arg, lineno, churn, cache)``
    #: tuple per instruction, with constants pre-resolved and inline-cache
    #: slots attached. Built lazily on first execution and invalidated by
    #: any mutation of the instruction stream.
    _threaded: Optional[list] = field(default=None, repr=False, compare=False)

    def const_index(self, value: Any) -> int:
        """Intern ``value`` in the constant pool and return its index.

        Values that are unhashable or compare equal across types (1 vs
        True) are matched by (type, value) identity semantics.
        """
        key_type = type(value)
        for i, existing in enumerate(self.constants):
            if type(existing) is key_type:
                try:
                    if existing == value:
                        return i
                except Exception:
                    pass
        self.constants.append(value)
        return len(self.constants) - 1

    def emit(self, opcode: str, arg: Any = None, lineno: int = 0) -> int:
        """Append an instruction; returns its index (for jump patching)."""
        self._threaded = None
        self.instructions.append(Instruction(opcode, arg, lineno))
        return len(self.instructions) - 1

    def patch_jump(self, index: int, target: int) -> None:
        """Set the jump target of the instruction at ``index``."""
        old = self.instructions[index]
        self._threaded = None
        self.instructions[index] = Instruction(old.opcode, target, old.lineno)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodeObject {self.name!r} at {self.filename}:{self.firstlineno} ({len(self)} instrs)>"


@dataclass
class SimFunction:
    """A function defined in the simulated program."""

    code: CodeObject
    #: The module globals dict the function closes over.
    globals: dict
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.code.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimFunction {self.name!r}>"


class Frame:
    """An activation record of the simulated interpreter.

    Mirrors the CPython frame fields that profilers inspect: the code
    object, current line, current instruction index (``f_lasti``), and the
    caller frame (``f_back``).
    """

    __slots__ = (
        "code",
        "globals",
        "locals",
        "stack",
        "pc",
        "lineno",
        "back",
        "py_handle",
        "last_traced_line",
        "lasti",
        "block_stack",
    )

    def __init__(self, code: CodeObject, globals_dict: dict, back: Optional["Frame"] = None) -> None:
        self.code = code
        self.globals = globals_dict
        self.locals: dict = {}
        self.stack: list = []
        self.pc = 0
        self.lineno = code.firstlineno
        self.back = back
        #: PyMem allocation backing this frame object (set by the VM).
        self.py_handle = None
        #: Last line for which a trace 'line' event fired (-1 = none yet).
        self.last_traced_line = -1
        #: Index of the instruction currently (or last) executing. During a
        #: native call this stays parked on the CALL instruction — the
        #: signature Scalene's thread attribution keys on (§2.2).
        self.lasti = 0
        #: Active ``try`` blocks: ``(handler_pc, stack_depth)`` entries
        #: pushed by SETUP_EXCEPT (lazily created; None = no handlers).
        self.block_stack: Optional[list] = None

    @property
    def current_instruction(self) -> Optional["Instruction"]:
        """The instruction about to execute (or just executing)."""
        if 0 <= self.pc < len(self.code.instructions):
            return self.code.instructions[self.pc]
        return None

    def location(self) -> Tuple[str, int, str]:
        """(filename, lineno, function name) — profiler attribution key."""
        return (self.code.filename, self.lineno, self.code.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.code.name} at {self.code.filename}:{self.lineno}>"
