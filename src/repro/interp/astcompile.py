"""Compiler from a restricted Python subset to the simulated bytecode.

Workloads (the paper's benchmarks, microbenchmarks and case studies) are
ordinary Python source strings. The host :mod:`ast` module parses them;
this compiler lowers the AST to :class:`~repro.interp.code.CodeObject`
instructions with accurate line numbers — the attribution unit for every
profiler in the reproduction.

Supported subset: module-level statements, ``def`` (positional parameters
only), ``global``, assignment (name / subscript / tuple-unpacking
targets), augmented assignment on names and subscripts,
``if``/``elif``/``else``, ``while``, ``for`` over iterables,
``break``/``continue``, ``return``, ``del``, ``pass``,
``try``/``except`` (single bare handler, no else/finally), expression
statements; literals (numbers, strings, booleans, None, lists, tuples,
dicts), single-generator list comprehensions and generator expressions
(materialized eagerly, loop target leaks Python-2-style), names,
attribute access, method and function calls with keyword arguments,
subscripts and slices, unary and binary operators, comparisons (single
comparator), boolean ``and``/``or``, and the ternary conditional.
Everything else raises :class:`~repro.errors.CompileError` with the
offending line.
"""

from __future__ import annotations

import ast
import hashlib
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.interp import opcodes as op
from repro.interp.code import CodeObject

_BINOP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
    ast.LShift: "<<",
    ast.RShift: ">>",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
}

_CMPOP_SYMBOLS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.Is: "is",
    ast.IsNot: "is not",
}

_UNARYOP_SYMBOLS = {
    ast.USub: "-",
    ast.UAdd: "+",
    ast.Not: "not",
    ast.Invert: "~",
}


#: LRU cache of compiled module code objects, keyed by
#: ``(sha256(source), filename, verify)``. The verify flag is part of the
#: key because a verified and an unverified compile of the same source are
#: different artifacts: a cached unverified code object must never satisfy
#: a ``REPRO_VERIFY=1`` compile (and vice versa).
_CODE_CACHE: "OrderedDict[Tuple[str, str, bool], CodeObject]" = OrderedDict()
_CODE_CACHE_MAX = 128
_CODE_CACHE_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def clear_code_cache() -> None:
    """Drop all cached code objects and reset hit/miss counters."""
    _CODE_CACHE.clear()
    _CODE_CACHE_STATS["hits"] = 0
    _CODE_CACHE_STATS["misses"] = 0


def code_cache_stats() -> Dict[str, int]:
    """A snapshot of the compile cache's hit/miss counters and size."""
    stats = dict(_CODE_CACHE_STATS)
    stats["size"] = len(_CODE_CACHE)
    return stats


def compile_source(
    source: str, filename: str = "<workload>", *, verify: Optional[bool] = None
) -> CodeObject:
    """Compile ``source`` (the restricted subset) to a module code object.

    ``verify`` runs the bytecode verifier
    (:func:`repro.staticcheck.verify_code`) over the emitted code object
    and every nested function body, raising
    :class:`~repro.staticcheck.VerificationError` on malformed output —
    a guard against compiler bugs reaching the VM. Default: off, unless
    the ``REPRO_VERIFY`` environment variable is truthy (the test suite
    turns it on, so every workload the tests compile is verified).

    Results are cached by (source hash, filename, verify flag) so repeated
    runs of the same workload skip parsing, lowering, and verification.
    Cached code objects are shared: callers must treat them as immutable.
    Set ``REPRO_CODE_CACHE=0`` to disable the cache.
    """
    if verify is None:
        verify = os.environ.get("REPRO_VERIFY", "").lower() in ("1", "true", "on")
    verify = bool(verify)

    key: Optional[Tuple[str, str, bool]] = None
    if os.environ.get("REPRO_CODE_CACHE", "1").lower() not in ("0", "false", "off"):
        key = (hashlib.sha256(source.encode("utf-8")).hexdigest(), filename, verify)
        cached = _CODE_CACHE.get(key)
        if cached is not None:
            _CODE_CACHE_STATS["hits"] += 1
            _CODE_CACHE.move_to_end(key)
            return cached
        _CODE_CACHE_STATS["misses"] += 1

    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise CompileError(f"syntax error: {exc.msg}", exc.lineno) from None
    compiler = _Compiler(filename)
    code = compiler.compile_module(tree)
    if verify:
        # Local import: staticcheck depends on interp, not vice versa.
        from repro.staticcheck.verifier import verify_code

        verify_code(code)
    if key is not None:
        _CODE_CACHE[key] = code
        if len(_CODE_CACHE) > _CODE_CACHE_MAX:
            _CODE_CACHE.popitem(last=False)
    return code


class _LoopContext:
    """Jump-patching bookkeeping for one enclosing loop."""

    def __init__(self, continue_target: int, is_for: bool = False, try_depth: int = 0) -> None:
        self.continue_target = continue_target
        #: ``for`` loops keep their iterator on the operand stack for the
        #: loop's whole extent; ``break`` must pop it on the way out.
        self.is_for = is_for
        #: Number of enclosing ``try`` blocks at loop entry; ``break`` and
        #: ``continue`` must POP_BLOCK any blocks entered since, or a later
        #: exception would wrongly unwind into an already-exited handler.
        self.try_depth = try_depth
        self.break_fixups: List[int] = []


class _Compiler:
    def __init__(self, filename: str) -> None:
        self.filename = filename
        #: Current ``try`` nesting depth (per code object; saved/restored
        #: around nested function bodies).
        self._try_depth = 0

    # -- entry points ---------------------------------------------------------

    def compile_module(self, tree: ast.Module) -> CodeObject:
        code = CodeObject(name="<module>", filename=self.filename, firstlineno=1)
        self._compile_body(tree.body, code, loops=[], is_module=True)
        # Modules implicitly return None.
        code.emit(op.LOAD_CONST, code.const_index(None), self._last_line(code))
        code.emit(op.RETURN_VALUE, None, self._last_line(code))
        return code

    def compile_function(self, node: ast.FunctionDef) -> CodeObject:
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs or args.defaults:
            raise CompileError(
                "only plain positional parameters are supported", node.lineno
            )
        code = CodeObject(
            name=node.name,
            filename=self.filename,
            params=tuple(a.arg for a in args.args),
            firstlineno=node.lineno,
        )
        global_names: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, ast.Global):
                global_names.extend(stmt.names)
        code.global_names = tuple(global_names)
        saved_try_depth = self._try_depth
        self._try_depth = 0
        self._compile_body(node.body, code, loops=[], is_module=False)
        self._try_depth = saved_try_depth
        code.emit(op.LOAD_CONST, code.const_index(None), self._last_line(code))
        code.emit(op.RETURN_VALUE, None, self._last_line(code))
        return code

    @staticmethod
    def _last_line(code: CodeObject) -> int:
        return code.instructions[-1].lineno if code.instructions else code.firstlineno

    # -- statements ---------------------------------------------------------

    def _compile_body(
        self, body: List[ast.stmt], code: CodeObject, loops: List[_LoopContext], is_module: bool
    ) -> None:
        for index, stmt in enumerate(body):
            # Skip docstrings.
            if (
                index == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                continue
            self._stmt(stmt, code, loops, is_module)

    def _stmt(self, node: ast.stmt, code: CodeObject, loops, is_module: bool) -> None:
        line = node.lineno
        if isinstance(node, ast.FunctionDef):
            if node.decorator_list:
                # @profile-style decorators are accepted and ignored, as the
                # paper's methodology does for profilers that need them.
                pass
            fn_code = self.compile_function(node)
            code.emit(op.MAKE_FUNCTION, code.const_index(fn_code), line)
            code.emit(op.STORE_NAME, node.name, line)
        elif isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise CompileError("chained assignment is not supported", line)
            self._expr(node.value, code)
            self._store_target(node.targets[0], code)
        elif isinstance(node, ast.AugAssign):
            symbol = _BINOP_SYMBOLS.get(type(node.op))
            if symbol is None:
                raise CompileError("unsupported augmented operator", line)
            if isinstance(node.target, ast.Name):
                code.emit(op.LOAD_NAME, node.target.id, line)
                self._expr(node.value, code)
                code.emit(op.BINARY_OP, symbol, line)
                code.emit(op.STORE_NAME, node.target.id, line)
            elif isinstance(node.target, ast.Subscript):
                # d[k] op= v desugars to d[k] = d[k] op v. The container
                # and index expressions are evaluated twice; the subset's
                # expressions are side-effect-free, so semantics agree.
                self._expr(node.target.value, code)
                self._expr(node.target.slice, code)
                code.emit(op.BINARY_SUBSCR, None, line)
                self._expr(node.value, code)
                code.emit(op.BINARY_OP, symbol, line)
                self._expr(node.target.value, code)
                self._expr(node.target.slice, code)
                code.emit(op.STORE_SUBSCR, None, line)
            else:
                raise CompileError(
                    "augmented assignment only on names and subscripts", line
                )
        elif isinstance(node, ast.Expr):
            self._expr(node.value, code)
            code.emit(op.POP_TOP, None, line)
        elif isinstance(node, ast.If):
            self._compile_if(node, code, loops, is_module)
        elif isinstance(node, ast.While):
            self._compile_while(node, code, loops, is_module)
        elif isinstance(node, ast.For):
            self._compile_for(node, code, loops, is_module)
        elif isinstance(node, ast.Try):
            self._compile_try(node, code, loops, is_module)
        elif isinstance(node, ast.Break):
            if not loops:
                raise CompileError("'break' outside loop", line)
            for _ in range(self._try_depth - loops[-1].try_depth):
                code.emit(op.POP_BLOCK, None, line)
            if loops[-1].is_for:
                # The loop iterator sits on the stack below the body's
                # temporaries; breaking without popping it would leak it
                # (FOR_ITER's exit edge pops it, but break bypasses that
                # edge) — the verifier rejects the resulting depth
                # mismatch at the loop-exit merge point.
                code.emit(op.POP_TOP, None, line)
            fixup = code.emit(op.JUMP, None, line)
            loops[-1].break_fixups.append(fixup)
        elif isinstance(node, ast.Continue):
            if not loops:
                raise CompileError("'continue' outside loop", line)
            for _ in range(self._try_depth - loops[-1].try_depth):
                code.emit(op.POP_BLOCK, None, line)
            code.emit(op.JUMP, loops[-1].continue_target, line)
        elif isinstance(node, ast.Return):
            if is_module:
                raise CompileError("'return' outside function", line)
            if node.value is not None:
                self._expr(node.value, code)
            else:
                code.emit(op.LOAD_CONST, code.const_index(None), line)
            code.emit(op.RETURN_VALUE, None, line)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    raise CompileError("'del' only on names", line)
                code.emit(op.DELETE_NAME, target.id, line)
        elif isinstance(node, ast.Pass):
            code.emit(op.NOP, None, line)
        elif isinstance(node, ast.Global):
            pass  # collected in compile_function
        else:
            raise CompileError(f"unsupported statement: {type(node).__name__}", line)

    def _store_target(self, target: ast.expr, code: CodeObject) -> None:
        line = target.lineno
        if isinstance(target, ast.Name):
            code.emit(op.STORE_NAME, target.id, line)
        elif isinstance(target, ast.Subscript):
            # stack: value. Compile container and index, then STORE_SUBSCR
            # pops (container, index, value) in VM-defined order.
            self._expr(target.value, code)
            self._expr(target.slice, code)
            code.emit(op.STORE_SUBSCR, None, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names = target.elts
            code.emit(op.UNPACK_SEQUENCE, len(names), line)
            for element in names:
                self._store_target(element, code)
        else:
            raise CompileError(
                f"unsupported assignment target: {type(target).__name__}", line
            )

    def _compile_if(self, node: ast.If, code: CodeObject, loops, is_module: bool) -> None:
        self._expr(node.test, code)
        else_fixup = code.emit(op.POP_JUMP_IF_FALSE, None, node.lineno)
        self._compile_body(node.body, code, loops, is_module)
        if node.orelse:
            end_fixup = code.emit(op.JUMP, None, self._last_line(code))
            code.patch_jump(else_fixup, len(code))
            self._compile_body(node.orelse, code, loops, is_module)
            code.patch_jump(end_fixup, len(code))
        else:
            code.patch_jump(else_fixup, len(code))

    def _compile_while(self, node: ast.While, code: CodeObject, loops, is_module: bool) -> None:
        if node.orelse:
            raise CompileError("while/else is not supported", node.lineno)
        start = len(code)
        self._expr(node.test, code)
        exit_fixup = code.emit(op.POP_JUMP_IF_FALSE, None, node.lineno)
        loop = _LoopContext(continue_target=start, try_depth=self._try_depth)
        loops.append(loop)
        self._compile_body(node.body, code, loops, is_module)
        loops.pop()
        code.emit(op.JUMP, start, self._last_line(code))
        end = len(code)
        code.patch_jump(exit_fixup, end)
        for fixup in loop.break_fixups:
            code.patch_jump(fixup, end)

    def _compile_for(self, node: ast.For, code: CodeObject, loops, is_module: bool) -> None:
        if node.orelse:
            raise CompileError("for/else is not supported", node.lineno)
        self._expr(node.iter, code)
        code.emit(op.GET_ITER, None, node.lineno)
        start = len(code)
        exit_fixup = code.emit(op.FOR_ITER, None, node.lineno)
        self._store_target(node.target, code)
        loop = _LoopContext(continue_target=start, is_for=True, try_depth=self._try_depth)
        loops.append(loop)
        self._compile_body(node.body, code, loops, is_module)
        loops.pop()
        code.emit(op.JUMP, start, self._last_line(code))
        end = len(code)
        code.patch_jump(exit_fixup, end)
        for fixup in loop.break_fixups:
            code.patch_jump(fixup, end)

    def _compile_try(self, node: ast.Try, code: CodeObject, loops, is_module: bool) -> None:
        """Lower ``try``/bare-``except`` to SETUP_EXCEPT / POP_BLOCK.

        The handler is entered (by the VM's unwinder) at exactly the
        operand-stack depth recorded at SETUP_EXCEPT, so the verifier can
        model the exception edge as a plain branch with stack delta 0.
        """
        line = node.lineno
        if node.orelse:
            raise CompileError("try/else is not supported", line)
        if node.finalbody:
            raise CompileError("try/finally is not supported", line)
        if len(node.handlers) != 1:
            raise CompileError("only a single except handler is supported", line)
        handler = node.handlers[0]
        if handler.type is not None or handler.name is not None:
            raise CompileError(
                "only bare 'except:' handlers are supported", handler.lineno
            )
        setup_ix = code.emit(op.SETUP_EXCEPT, None, line)
        self._try_depth += 1
        self._compile_body(node.body, code, loops, is_module)
        self._try_depth -= 1
        code.emit(op.POP_BLOCK, None, self._last_line(code))
        end_fixup = code.emit(op.JUMP, None, self._last_line(code))
        code.patch_jump(setup_ix, len(code))
        self._compile_body(handler.body, code, loops, is_module)
        code.patch_jump(end_fixup, len(code))

    # -- expressions ---------------------------------------------------------

    def _expr(self, node: ast.expr, code: CodeObject) -> None:
        line = node.lineno
        if isinstance(node, ast.Constant):
            code.emit(op.LOAD_CONST, code.const_index(node.value), line)
        elif isinstance(node, ast.Name):
            code.emit(op.LOAD_NAME, node.id, line)
        elif isinstance(node, ast.BinOp):
            symbol = _BINOP_SYMBOLS.get(type(node.op))
            if symbol is None:
                raise CompileError(
                    f"unsupported binary operator: {type(node.op).__name__}", line
                )
            self._expr(node.left, code)
            self._expr(node.right, code)
            code.emit(op.BINARY_OP, symbol, line)
        elif isinstance(node, ast.UnaryOp):
            symbol = _UNARYOP_SYMBOLS.get(type(node.op))
            if symbol is None:
                raise CompileError(
                    f"unsupported unary operator: {type(node.op).__name__}", line
                )
            self._expr(node.operand, code)
            code.emit(op.UNARY_OP, symbol, line)
        elif isinstance(node, ast.BoolOp):
            jump_op = (
                op.JUMP_IF_FALSE_OR_POP
                if isinstance(node.op, ast.And)
                else op.JUMP_IF_TRUE_OR_POP
            )
            fixups = []
            for i, value in enumerate(node.values):
                self._expr(value, code)
                if i < len(node.values) - 1:
                    fixups.append(code.emit(jump_op, None, line))
            end = len(code)
            for fixup in fixups:
                code.patch_jump(fixup, end)
        elif isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise CompileError("chained comparisons are not supported", line)
            symbol = _CMPOP_SYMBOLS.get(type(node.ops[0]))
            if symbol is None:
                raise CompileError(
                    f"unsupported comparison: {type(node.ops[0]).__name__}", line
                )
            self._expr(node.left, code)
            self._expr(node.comparators[0], code)
            code.emit(op.COMPARE_OP, symbol, line)
        elif isinstance(node, ast.IfExp):
            self._expr(node.test, code)
            else_fixup = code.emit(op.POP_JUMP_IF_FALSE, None, line)
            self._expr(node.body, code)
            end_fixup = code.emit(op.JUMP, None, line)
            code.patch_jump(else_fixup, len(code))
            self._expr(node.orelse, code)
            code.patch_jump(end_fixup, len(code))
        elif isinstance(node, ast.Call):
            self._compile_call(node, code)
        elif isinstance(node, ast.Attribute):
            self._expr(node.value, code)
            code.emit(op.LOAD_ATTR, node.attr, line)
        elif isinstance(node, ast.Subscript):
            self._expr(node.value, code)
            self._expr(node.slice, code)
            code.emit(op.BINARY_SUBSCR, None, line)
        elif isinstance(node, ast.Slice):
            count = 2
            self._expr_or_none(node.lower, code, line)
            self._expr_or_none(node.upper, code, line)
            if node.step is not None:
                self._expr(node.step, code)
                count = 3
            code.emit(op.BUILD_SLICE, count, line)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # Both materialize to a list (generator expressions are eager
            # in the simulated subset). Single generator, optional guards.
            self._compile_comprehension(node, code)
        elif isinstance(node, ast.List):
            for element in node.elts:
                self._expr(element, code)
            code.emit(op.BUILD_LIST, len(node.elts), line)
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                self._expr(element, code)
            code.emit(op.BUILD_TUPLE, len(node.elts), line)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    raise CompileError("dict unpacking is not supported", line)
                self._expr(key, code)
                self._expr(value, code)
            code.emit(op.BUILD_MAP, len(node.keys), line)
        else:
            raise CompileError(f"unsupported expression: {type(node).__name__}", line)

    def _compile_comprehension(self, node, code: CodeObject) -> None:
        """Lower ``[elt for tgt in iter if cond...]`` to an append loop.

        Like Python 2 (and unlike CPython 3's hidden scope), the loop
        target leaks into the enclosing scope — documented subset
        behaviour, immaterial for profiling workloads.
        """
        line = node.lineno
        if len(node.generators) != 1:
            raise CompileError("only single-generator comprehensions", line)
        gen = node.generators[0]
        if gen.is_async:
            raise CompileError("async comprehensions are not supported", line)
        code.emit(op.BUILD_LIST, 0, line)
        self._expr(gen.iter, code)
        code.emit(op.GET_ITER, None, line)
        start = len(code)
        exit_fixup = code.emit(op.FOR_ITER, None, line)
        self._store_target(gen.target, code)
        for test in gen.ifs:
            self._expr(test, code)
            code.emit(op.POP_JUMP_IF_FALSE, start, line)
        self._expr(node.elt, code)
        # Append past the iterator to the accumulator list (depth 2).
        code.emit(op.LIST_APPEND, 2, line)
        code.emit(op.JUMP, start, line)
        code.patch_jump(exit_fixup, len(code))

    def _expr_or_none(self, node: Optional[ast.expr], code: CodeObject, line: int) -> None:
        if node is None:
            code.emit(op.LOAD_CONST, code.const_index(None), line)
        else:
            self._expr(node, code)

    def _compile_call(self, node: ast.Call, code: CodeObject) -> None:
        line = node.lineno
        kwnames: Tuple[str, ...] = ()
        for keyword in node.keywords:
            if keyword.arg is None:
                raise CompileError("**kwargs call syntax is not supported", line)
        is_method = isinstance(node.func, ast.Attribute)
        if is_method:
            self._expr(node.func.value, code)
            code.emit(op.LOAD_METHOD, node.func.attr, line)
        else:
            self._expr(node.func, code)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                raise CompileError("*args call syntax is not supported", line)
            self._expr(arg, code)
        for keyword in node.keywords:
            self._expr(keyword.value, code)
        kwnames = tuple(k.arg for k in node.keywords)
        call_arg = (len(node.args), kwnames)
        code.emit(op.CALL_METHOD if is_method else op.CALL, call_arg, line)
