"""A ``dis``-module analog for the simulated bytecode.

Scalene builds "a map of all such [call] bytecodes at startup" (§2.2) via
bytecode disassembly; :func:`build_call_opcode_map` is that map for our
instruction set: for each code object, the set of instruction indices
holding a call opcode. The thread-attribution algorithm consults it to
decide whether a thread parked on an instruction is executing native code.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.interp.code import CodeObject
from repro.interp.opcodes import is_call_opcode


def disassemble(code: CodeObject, *, show_blocks: bool = False) -> str:
    """Human-readable listing of a code object (dis.dis analog).

    With ``show_blocks`` the listing is annotated with the basic-block
    boundaries of the control-flow graph: each block's index, its
    predecessors/successors, and whether it heads a natural loop — the
    view ``python -m repro dis`` prints.
    """
    block_headers = {}
    if show_blocks:
        # Local import: staticcheck builds on interp, not the reverse.
        from repro.staticcheck.cfg import build_cfg

        cfg = build_cfg(code)
        loop_headers = {loop.header for loop in cfg.natural_loops()}
        for block in cfg.blocks:
            preds = ",".join(f"B{p}" for p in block.predecessors) or "-"
            succs = ",".join(f"B{s}" for s in block.successors) or "-"
            tag = "  <loop header>" if block.index in loop_headers else ""
            block_headers[block.start] = (
                f"  -- B{block.index} (preds: {preds}; succs: {succs}){tag}"
            )
    lines: List[str] = [f"Disassembly of {code.name} ({code.filename}):"]
    last_lineno = None
    for index, instr in enumerate(code.instructions):
        header = block_headers.get(index)
        if header is not None:
            lines.append(header)
        line_field = f"{instr.lineno:>4}" if instr.lineno != last_lineno else "    "
        last_lineno = instr.lineno
        arg = "" if instr.arg is None else repr(instr.arg)
        lines.append(f"{line_field}  {index:>5}  {instr.opcode:<22} {arg}")
    return "\n".join(lines)


def iter_code_objects(code: CodeObject) -> Iterable[CodeObject]:
    """Yield ``code`` and every nested code object in its constant pool."""
    yield code
    for const in code.constants:
        if isinstance(const, CodeObject):
            yield from iter_code_objects(const)


def build_call_opcode_map(code: CodeObject) -> Dict[int, FrozenSet[int]]:
    """Map ``id(code_object) -> frozen set of call-instruction indices``.

    Covers the given code object and all nested function bodies, exactly
    like Scalene's startup scan over loaded code objects.
    """
    call_map: Dict[int, FrozenSet[int]] = {}
    for code_object in iter_code_objects(code):
        indices: Set[int] = {
            index
            for index, instr in enumerate(code_object.instructions)
            if is_call_opcode(instr.opcode)
        }
        call_map[id(code_object)] = frozenset(indices)
    return call_map
