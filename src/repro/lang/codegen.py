"""Bytecode code generation for the JL guest language.

Translates the parser's AST into :class:`~repro.jvm.classfile.JClass` /
:class:`~repro.jvm.classfile.JMethod` objects containing simulated-JVM
bytecode.  Notable lowerings:

- **lambdas** are lifted into synthetic static methods ``lambda$N`` on the
  enclosing class; the expression compiles to ``INVOKEDYNAMIC`` which
  captures free variables by value (Java's effectively-final semantics),
- **closure calls** ``f(a, b)`` compile to ``INVOKEHANDLE`` (the
  polymorphic ``MethodHandle.invoke`` the paper's MHS optimization
  targets),
- **synchronized blocks/methods** compile to paired
  ``MONITORENTER``/``MONITOREXIT`` with a hidden local holding the lock;
  ``break``/``continue``/``return`` unwind the monitors they cross,
- **constructors** (``def init``) are invoked via ``NEW; DUP;
  INVOKESPECIAL``.

Codegen also records the static call/field-access sets used by the
Chidamber–Kemerer metrics (Section 7.1 of the paper).
"""

from __future__ import annotations

import functools

from repro.errors import CompileError
from repro.lang import ast_nodes as A
from repro.lang.parser import BUILTINS, _BUILTIN_ARITY, parse
from repro.jvm.bytecode import Instr, Op
from repro.jvm.classfile import JClass, JField, JMethod

#: Classes every VM defines natively (see repro.runtime.vm).
BUILTIN_CLASSES = frozenset({
    "Object", "Function", "Sys", "Math", "Str", "Arrays",
})


class Program:
    """A compiled guest program: the classes to load into a VM."""

    def __init__(self, classes: list[JClass]) -> None:
        self.classes = classes
        self.by_name = {c.name: c for c in classes}

    def __repr__(self) -> str:
        return f"<Program {len(self.classes)} classes>"


@functools.cache
def _stdlib_decls() -> tuple:
    """The guest stdlib's class declarations, parsed once per process.

    AST only — codegen reads the nodes and runs per program; the key set
    is the fixed stdlib, so the cache has no size to manage."""
    from repro.lang.stdlib import STDLIB_SOURCES
    return tuple(decl for text in STDLIB_SOURCES for decl in parse(text))


def compile_program(*sources: str, include_stdlib: bool = True) -> Program:
    """Compile JL ``sources`` (plus the guest stdlib) into a Program."""
    decls: list[A.ClassDecl] = []
    if include_stdlib:
        decls.extend(_stdlib_decls())
    for text in sources:
        decls.extend(parse(text))
    return _CodegenUnit(decls).compile()


# ----------------------------------------------------------------------
# Free-variable analysis for lambda capture.
# ----------------------------------------------------------------------

def _free_vars(stmts: list[A.Stmt], bound: set[str], class_names: set[str],
               out: list[str], seen: set[str]) -> None:
    """Collect free names of ``stmts`` in first-use order into ``out``.

    ``this`` is represented by the pseudo-name ``"this"``.  Names bound by
    ``var`` declarations become bound for subsequent statements.
    """
    local_bound = set(bound)

    def walk_expr(expr: A.Expr) -> None:
        if isinstance(expr, A.Name):
            name = expr.ident
            if (name not in local_bound and name not in class_names
                    and name not in BUILTINS and name not in seen):
                seen.add(name)
                out.append(name)
        elif isinstance(expr, A.This):
            if "this" not in local_bound and "this" not in seen:
                seen.add("this")
                out.append("this")
        elif isinstance(expr, A.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, (A.Binary, A.ShortCircuit)):
            walk_expr(expr.lhs)
            walk_expr(expr.rhs)
        elif isinstance(expr, A.FieldAccess):
            walk_expr(expr.obj)
        elif isinstance(expr, A.Index):
            walk_expr(expr.array)
            walk_expr(expr.index)
        elif isinstance(expr, A.Call):
            walk_expr(expr.callee)
            for arg in expr.args:
                walk_expr(arg)
        elif isinstance(expr, A.New):
            for arg in expr.args:
                walk_expr(arg)
        elif isinstance(expr, A.NewArray):
            walk_expr(expr.length)
        elif isinstance(expr, A.InstanceOf):
            walk_expr(expr.obj)
        elif isinstance(expr, A.Lambda):
            inner_bound = local_bound | set(expr.params)
            _free_vars(expr.body, inner_bound, class_names, out, seen)
        # Literals and StaticAccess have no free names.

    def walk_stmt(stmt: A.Stmt) -> None:
        if isinstance(stmt, A.VarDecl):
            walk_expr(stmt.init)
            local_bound.add(stmt.name)
        elif isinstance(stmt, A.Assign):
            walk_expr(stmt.value)
            walk_expr(stmt.target)
        elif isinstance(stmt, A.ExprStmt):
            walk_expr(stmt.expr)
        elif isinstance(stmt, A.If):
            walk_expr(stmt.cond)
            for s in stmt.then_body:
                walk_stmt(s)
            for s in stmt.else_body:
                walk_stmt(s)
        elif isinstance(stmt, A.While):
            walk_expr(stmt.cond)
            for s in stmt.body:
                walk_stmt(s)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                walk_stmt(stmt.init)
            if stmt.cond is not None:
                walk_expr(stmt.cond)
            for s in stmt.body:
                walk_stmt(s)
            if stmt.step is not None:
                walk_stmt(stmt.step)
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                walk_expr(stmt.value)
        elif isinstance(stmt, A.Synchronized):
            walk_expr(stmt.lock)
            for s in stmt.body:
                walk_stmt(s)
        # Break/Continue: nothing.

    for stmt in stmts:
        walk_stmt(stmt)


# ----------------------------------------------------------------------
# The compilation unit.
# ----------------------------------------------------------------------

class _CodegenUnit:
    def __init__(self, decls: list[A.ClassDecl]) -> None:
        self.decls = decls
        self.class_names = BUILTIN_CLASSES | {d.name for d in decls}
        dup = [d.name for d in decls if d.name in BUILTIN_CLASSES]
        if dup:
            raise CompileError(f"classes shadow builtins: {dup}")
        if len({d.name for d in decls}) != len(decls):
            names = [d.name for d in decls]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise CompileError(f"duplicate class declarations: {dupes}")

    def compile(self) -> Program:
        classes = []
        for decl in self.decls:
            classes.append(self._compile_class(decl))
        return Program(classes)

    def _compile_class(self, decl: A.ClassDecl) -> JClass:
        jclass = JClass(decl.name, decl.super_name,
                        interfaces=tuple(decl.interfaces),
                        is_interface=decl.is_interface)
        jclass.referenced = set()
        if decl.super_name and decl.super_name != "Object":
            jclass.referenced.add(decl.super_name)
        jclass.referenced.update(decl.interfaces)

        static_inits: list[tuple[str, A.Expr]] = []
        for fld in decl.fields:
            jclass.add_field(JField(fld.name, static=fld.static))
            if fld.static and fld.init is not None:
                static_inits.append((fld.name, fld.init))

        has_init = any(m.name == "init" and not m.static for m in decl.methods)
        if not has_init and not decl.is_interface:
            jclass.add_method(JMethod("init", decl.name, 0,
                                      [Instr(Op.RETURN)], max_locals=1))

        for mdecl in decl.methods:
            method = self._compile_method(jclass, mdecl)
            jclass.add_method(method)

        if static_inits:
            gen = _MethodCodegen(self, jclass, static=True, params=[])
            for name, init in static_inits:
                gen.expr(init)
                gen.emit(Op.PUTSTATIC, (decl.name, name))
            gen.emit(Op.RETURN)
            clinit = JMethod("__clinit__", decl.name, 0, gen.code,
                             max_locals=gen.next_slot, static=True)
            jclass.add_method(clinit)
        return jclass

    def _compile_method(self, jclass: JClass, mdecl: A.MethodDecl) -> JMethod:
        if mdecl.native or mdecl.body is None:
            method = JMethod(mdecl.name, jclass.name, len(mdecl.params),
                             static=mdecl.static, native=mdecl.native,
                             abstract=not mdecl.native)
            return method
        if mdecl.synchronized and mdecl.static:
            raise CompileError(
                f"{jclass.name}.{mdecl.name}: static synchronized methods "
                "are not supported; synchronize on an explicit lock object")
        gen = _MethodCodegen(self, jclass, static=mdecl.static,
                             params=mdecl.params)
        body = mdecl.body
        if mdecl.synchronized:
            body = [A.Synchronized(A.This(mdecl.line), body, mdecl.line)]
        for stmt in body:
            gen.stmt(stmt)
        gen.emit(Op.RETURN)
        method = JMethod(mdecl.name, jclass.name, len(mdecl.params), gen.code,
                         max_locals=gen.next_slot, static=mdecl.static,
                         synchronized=mdecl.synchronized)
        method.accessed_fields = gen.accessed_fields
        method.called = gen.called
        method.source_lines = max(1, mdecl.end_line - mdecl.line + 1)
        return method


class _MethodCodegen:
    """Bytecode emitter for one method body (and its lifted lambdas)."""

    def __init__(self, unit: _CodegenUnit, jclass: JClass, *, static: bool,
                 params: list[str], capture_env: list[str] | None = None) -> None:
        self.unit = unit
        self.jclass = jclass
        self.static = static
        self.code: list[Instr] = []
        self.locals: dict[str, int] = {}
        self.next_slot = 0
        self.accessed_fields: set[tuple[str, str]] = set()
        self.called: set[tuple[str | None, str]] = set()
        # Block scoping: names declared inside a block go out of scope at
        # its end (slots are not reused; max_locals just grows).
        self._scopes: list[set[str]] = [set()]
        # Context stack entries: ("loop", break_patches, continue_pc, depth)
        # or ("monitor", lock_slot).
        self.context: list = []
        if capture_env:
            for name in capture_env:
                self._declare(name)
        if not static and "this" not in self.locals:
            self._declare("this")
        for name in params:
            self._declare(name)

    # -- low-level emission --------------------------------------------
    def emit(self, op: Op, arg: object = None, line: int = 0) -> int:
        self.code.append(Instr(op, arg, line))
        return len(self.code) - 1

    def here(self) -> int:
        return len(self.code)

    def patch(self, index: int, target: int) -> None:
        instr = self.code[index]
        if instr.op is Op.GOTO:
            instr.arg = target
        else:
            instr.arg = (instr.arg[0], target)

    def _declare(self, name: str) -> int:
        if name in self.locals:
            raise CompileError(f"{self.jclass.name}: duplicate variable {name!r}")
        slot = self.next_slot
        self.locals[name] = slot
        self.next_slot += 1
        self._scopes[-1].add(name)
        return slot

    def enter_scope(self) -> None:
        self._scopes.append(set())

    def exit_scope(self) -> None:
        for name in self._scopes.pop():
            del self.locals[name]

    def scoped_body(self, stmts) -> None:
        self.enter_scope()
        for stmt in stmts:
            self.stmt(stmt)
        self.exit_scope()

    def _hidden_slot(self) -> int:
        slot = self.next_slot
        self.next_slot += 1
        return slot

    def error(self, message: str, line: int) -> CompileError:
        return CompileError(f"{self.jclass.name} line {line}: {message}")

    # -- statements ------------------------------------------------------
    def stmt(self, node: A.Stmt) -> None:
        handler = getattr(self, f"_stmt_{type(node).__name__}", None)
        if handler is None:
            raise CompileError(f"no codegen for statement {type(node).__name__}")
        handler(node)

    def _stmt_VarDecl(self, node: A.VarDecl) -> None:
        self.expr(node.init)
        slot = self._declare(node.name)
        self.emit(Op.STORE, slot, node.line)

    def _stmt_Assign(self, node: A.Assign) -> None:
        target = node.target
        if isinstance(target, A.Name):
            if target.ident not in self.locals:
                raise self.error(f"assignment to undeclared {target.ident!r}"
                                 " (use 'var' or 'this.')", node.line)
            self.expr(node.value)
            self.emit(Op.STORE, self.locals[target.ident], node.line)
        elif isinstance(target, A.FieldAccess):
            if (isinstance(target.obj, A.Name)
                    and self._is_class_name(target.obj.ident)):
                self.expr(node.value)
                self.emit(Op.PUTSTATIC, (target.obj.ident, target.name), node.line)
                self.jclass.referenced.add(target.obj.ident)
                self.accessed_fields.add((target.obj.ident, target.name))
            else:
                self.expr(target.obj)
                self.expr(node.value)
                self.emit(Op.PUTFIELD, target.name, node.line)
                self._note_field(target.obj, target.name)
        elif isinstance(target, A.Index):
            self.expr(target.array)
            self.expr(target.index)
            self.expr(node.value)
            self.emit(Op.ASTORE, None, node.line)
        else:
            raise self.error("bad assignment target", node.line)

    def _stmt_ExprStmt(self, node: A.ExprStmt) -> None:
        produces = self.expr(node.expr, want_value=False)
        if produces:
            self.emit(Op.POP, None, node.line)

    def _stmt_If(self, node: A.If) -> None:
        self.expr(node.cond)
        jump_else = self.emit(Op.IFZ, ("==", -1), node.line)
        self.scoped_body(node.then_body)
        if node.else_body:
            jump_end = self.emit(Op.GOTO, -1, node.line)
            self.patch(jump_else, self.here())
            self.scoped_body(node.else_body)
            self.patch(jump_end, self.here())
        else:
            self.patch(jump_else, self.here())

    def _stmt_While(self, node: A.While) -> None:
        head = self.here()
        self.expr(node.cond)
        exit_jump = self.emit(Op.IFZ, ("==", -1), node.line)
        breaks: list[int] = []
        self.context.append(("loop", breaks, head, self._monitor_depth()))
        self.scoped_body(node.body)
        self.context.pop()
        self.emit(Op.GOTO, head, node.line)
        end = self.here()
        self.patch(exit_jump, end)
        for index in breaks:
            self.patch(index, end)

    def _stmt_For(self, node: A.For) -> None:
        self.enter_scope()
        if node.init is not None:
            self.stmt(node.init)
        head = self.here()
        exit_jump = None
        if node.cond is not None:
            self.expr(node.cond)
            exit_jump = self.emit(Op.IFZ, ("==", -1), node.line)
        breaks: list[int] = []
        continues: list[int] = []
        # continue must jump to the step, whose pc is unknown yet: collect.
        self.context.append(("forloop", breaks, continues, self._monitor_depth()))
        self.scoped_body(node.body)
        self.context.pop()
        step_pc = self.here()
        if node.step is not None:
            self.stmt(node.step)
        self.emit(Op.GOTO, head, node.line)
        end = self.here()
        if exit_jump is not None:
            self.patch(exit_jump, end)
        for index in breaks:
            self.patch(index, end)
        for index in continues:
            self.patch(index, step_pc)
        self.exit_scope()

    def _monitor_depth(self) -> int:
        return sum(1 for entry in self.context if entry[0] == "monitor")

    def _exit_monitors(self, down_to: int, line: int) -> None:
        """Emit MONITOREXITs for monitors entered above depth ``down_to``."""
        depth = self._monitor_depth()
        for entry in reversed(self.context):
            if entry[0] == "monitor":
                if depth <= down_to:
                    break
                self.emit(Op.LOAD, entry[1], line)
                self.emit(Op.MONITOREXIT, None, line)
                depth -= 1

    def _innermost_loop(self):
        for entry in reversed(self.context):
            if entry[0] in ("loop", "forloop"):
                return entry
        return None

    def _stmt_Break(self, node: A.Break) -> None:
        loop = self._innermost_loop()
        if loop is None:
            raise self.error("break outside loop", node.line)
        self._exit_monitors(loop[-1], node.line)
        loop[1].append(self.emit(Op.GOTO, -1, node.line))

    def _stmt_Continue(self, node: A.Continue) -> None:
        loop = self._innermost_loop()
        if loop is None:
            raise self.error("continue outside loop", node.line)
        self._exit_monitors(loop[-1], node.line)
        if loop[0] == "loop":
            self.emit(Op.GOTO, loop[2], node.line)
        else:
            loop[2].append(self.emit(Op.GOTO, -1, node.line))

    def _stmt_Return(self, node: A.Return) -> None:
        if node.value is not None:
            self.expr(node.value)
            self._exit_monitors(0, node.line)
            self.emit(Op.RETVAL, None, node.line)
        else:
            self._exit_monitors(0, node.line)
            self.emit(Op.RETURN, None, node.line)

    def _stmt_Synchronized(self, node: A.Synchronized) -> None:
        self.expr(node.lock)
        slot = self._hidden_slot()
        self.emit(Op.STORE, slot, node.line)
        self.emit(Op.LOAD, slot, node.line)
        self.emit(Op.MONITORENTER, None, node.line)
        self.context.append(("monitor", slot))
        self.scoped_body(node.body)
        self.context.pop()
        self.emit(Op.LOAD, slot, node.line)
        self.emit(Op.MONITOREXIT, None, node.line)

    # -- expressions -----------------------------------------------------
    def expr(self, node: A.Expr, want_value: bool = True) -> bool:
        """Emit ``node``; returns True if a value was pushed."""
        handler = getattr(self, f"_expr_{type(node).__name__}", None)
        if handler is None:
            raise CompileError(f"no codegen for expression {type(node).__name__}")
        return handler(node, want_value)

    def _is_class_name(self, ident: str) -> bool:
        return ident not in self.locals and ident in self.unit.class_names

    def _note_field(self, obj: A.Expr, name: str) -> None:
        owner = self.jclass.name if isinstance(obj, A.This) else None
        self.accessed_fields.add((owner, name))

    def _expr_Literal(self, node: A.Literal, want_value: bool) -> bool:
        self.emit(Op.CONST, node.value, node.line)
        return True

    def _expr_This(self, node: A.This, want_value: bool) -> bool:
        if "this" not in self.locals:
            raise self.error("'this' in a static context", node.line)
        self.emit(Op.LOAD, self.locals["this"], node.line)
        return True

    def _expr_Name(self, node: A.Name, want_value: bool) -> bool:
        slot = self.locals.get(node.ident)
        if slot is None:
            raise self.error(
                f"unknown variable {node.ident!r} (fields need 'this.', "
                "statics need 'Class.')", node.line)
        self.emit(Op.LOAD, slot, node.line)
        return True

    def _expr_Unary(self, node: A.Unary, want_value: bool) -> bool:
        self.expr(node.operand)
        if node.op == "-":
            self.emit(Op.NEG, None, node.line)
        elif node.op == "!":
            self.emit(Op.NOT, None, node.line)
        else:  # '~'
            self.emit(Op.CONST, -1, node.line)
            self.emit(Op.XOR, None, node.line)
        return True

    _BINOPS = {
        "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.REM,
        "<<": Op.SHL, ">>": Op.SHR, "&": Op.AND, "|": Op.OR, "^": Op.XOR,
    }

    def _expr_Binary(self, node: A.Binary, want_value: bool) -> bool:
        self.expr(node.lhs)
        self.expr(node.rhs)
        if node.op in self._BINOPS:
            self.emit(self._BINOPS[node.op], None, node.line)
        else:
            self.emit(Op.CMP, node.op, node.line)
        return True

    def _expr_ShortCircuit(self, node: A.ShortCircuit, want_value: bool) -> bool:
        self.expr(node.lhs)
        if node.op == "&&":
            shortcut = self.emit(Op.IFZ, ("==", -1), node.line)
            self.expr(node.rhs)
            shortcut2 = self.emit(Op.IFZ, ("==", -1), node.line)
            self.emit(Op.CONST, 1, node.line)
            done = self.emit(Op.GOTO, -1, node.line)
            false_pc = self.here()
            self.patch(shortcut, false_pc)
            self.patch(shortcut2, false_pc)
            self.emit(Op.CONST, 0, node.line)
            self.patch(done, self.here())
        else:
            shortcut = self.emit(Op.IFZ, ("!=", -1), node.line)
            self.expr(node.rhs)
            shortcut2 = self.emit(Op.IFZ, ("!=", -1), node.line)
            self.emit(Op.CONST, 0, node.line)
            done = self.emit(Op.GOTO, -1, node.line)
            true_pc = self.here()
            self.patch(shortcut, true_pc)
            self.patch(shortcut2, true_pc)
            self.emit(Op.CONST, 1, node.line)
            self.patch(done, self.here())
        return True

    def _expr_FieldAccess(self, node: A.FieldAccess, want_value: bool) -> bool:
        if isinstance(node.obj, A.Name) and self._is_class_name(node.obj.ident):
            self.emit(Op.GETSTATIC, (node.obj.ident, node.name), node.line)
            self.jclass.referenced.add(node.obj.ident)
            self.accessed_fields.add((node.obj.ident, node.name))
            return True
        self.expr(node.obj)
        self.emit(Op.GETFIELD, node.name, node.line)
        self._note_field(node.obj, node.name)
        return True

    def _expr_Index(self, node: A.Index, want_value: bool) -> bool:
        self.expr(node.array)
        self.expr(node.index)
        self.emit(Op.ALOAD, None, node.line)
        return True

    def _expr_New(self, node: A.New, want_value: bool) -> bool:
        if node.class_name not in self.unit.class_names:
            raise self.error(f"unknown class {node.class_name!r}", node.line)
        self.jclass.referenced.add(node.class_name)
        self.emit(Op.NEW, node.class_name, node.line)
        self.emit(Op.DUP, None, node.line)
        for arg in node.args:
            self.expr(arg)
        self.emit(Op.INVOKESPECIAL,
                  (node.class_name, "init", len(node.args)), node.line)
        # Every call pushes a result (null for void): drop the
        # constructor's, keeping the DUPed reference.
        self.emit(Op.POP, None, node.line)
        self.called.add((node.class_name, "init"))
        return True

    def _expr_NewArray(self, node: A.NewArray, want_value: bool) -> bool:
        self.expr(node.length)
        self.emit(Op.NEWARRAY, node.kind, node.line)
        return True

    def _expr_InstanceOf(self, node: A.InstanceOf, want_value: bool) -> bool:
        if node.class_name not in self.unit.class_names:
            raise self.error(f"unknown class {node.class_name!r}", node.line)
        self.expr(node.obj)
        self.emit(Op.INSTANCEOF, node.class_name, node.line)
        self.jclass.referenced.add(node.class_name)
        return True

    def _expr_Lambda(self, node: A.Lambda, want_value: bool) -> bool:
        captured: list[str] = []
        seen: set[str] = set()
        _free_vars(node.body, set(node.params), self.unit.class_names,
                   captured, seen)
        unknown = [n for n in captured
                   if n != "this" and n not in self.locals]
        if unknown:
            raise self.error(f"lambda captures unknown names {unknown}",
                             node.line)
        if "this" in captured and "this" not in self.locals:
            raise self.error("lambda captures 'this' in a static context",
                             node.line)
        # Lift into a synthetic static method on the current class.  A
        # per-class counter reserves the name *before* the body is
        # generated — a nested lambda inside this body must not reuse it.
        index = getattr(self.jclass, "_lambda_counter", 0)
        self.jclass._lambda_counter = index + 1
        lname = f"lambda${index}"
        gen = _MethodCodegen(self.unit, self.jclass, static=True,
                             params=node.params, capture_env=captured)
        for stmt in node.body:
            gen.stmt(stmt)
        gen.emit(Op.RETURN)
        method = JMethod(lname, self.jclass.name,
                         len(captured) + len(node.params), gen.code,
                         max_locals=gen.next_slot, static=True)
        method.accessed_fields = gen.accessed_fields
        method.called = gen.called
        self.jclass.add_method(method)
        for name in captured:
            self.emit(Op.LOAD, self.locals[name], node.line)
        self.emit(Op.INVOKEDYNAMIC,
                  (self.jclass.name, lname, len(captured)), node.line)
        return True

    def _expr_Call(self, node: A.Call, want_value: bool) -> bool:
        callee = node.callee
        if isinstance(callee, A.Name):
            if callee.ident in BUILTINS:
                return self._builtin(callee.ident, node)
            slot = self.locals.get(callee.ident)
            if slot is None:
                raise self.error(
                    f"call of unknown name {callee.ident!r} (closures must "
                    "be locals; static calls need 'Class.method')", node.line)
            # Closure call through a local: MethodHandle.invoke.
            self.emit(Op.LOAD, slot, node.line)
            for arg in node.args:
                self.expr(arg)
            self.emit(Op.INVOKEHANDLE, len(node.args), node.line)
            self.called.add((None, "invoke"))
            return True
        if isinstance(callee, A.FieldAccess):
            obj = callee.obj
            if isinstance(obj, A.Name) and self._is_class_name(obj.ident):
                for arg in node.args:
                    self.expr(arg)
                self.emit(Op.INVOKESTATIC,
                          (obj.ident, callee.name, len(node.args)), node.line)
                self.jclass.referenced.add(obj.ident)
                self.called.add((obj.ident, callee.name))
                return True
            self.expr(obj)
            for arg in node.args:
                self.expr(arg)
            self.emit(Op.INVOKEVIRTUAL,
                      (None, callee.name, len(node.args)), node.line)
            owner = self.jclass.name if isinstance(obj, A.This) else None
            self.called.add((owner, callee.name))
            return True
        # Anything else: expression evaluating to a closure.
        self.expr(callee)
        for arg in node.args:
            self.expr(arg)
        self.emit(Op.INVOKEHANDLE, len(node.args), node.line)
        self.called.add((None, "invoke"))
        return True

    # -- builtins ----------------------------------------------------------
    def _builtin(self, name: str, node: A.Call) -> bool:
        args = node.args
        arity = _BUILTIN_ARITY[name]
        if len(args) != arity:
            raise self.error(f"{name} expects {arity} args, got {len(args)}",
                             node.line)
        line = node.line
        if name == "cas":
            target = args[0]
            if not isinstance(target, A.FieldAccess):
                raise self.error("cas target must be obj.field", line)
            self.expr(target.obj)
            self.expr(args[1])
            self.expr(args[2])
            self.emit(Op.CAS, target.name, line)
            self._note_field(target.obj, target.name)
            return True
        if name == "atomicGet":
            target = args[0]
            if not isinstance(target, A.FieldAccess):
                raise self.error("atomicGet target must be obj.field", line)
            self.expr(target.obj)
            self.emit(Op.ATOMIC_GET, target.name, line)
            self._note_field(target.obj, target.name)
            return True
        if name == "atomicAdd":
            target = args[0]
            if not isinstance(target, A.FieldAccess):
                raise self.error("atomicAdd target must be obj.field", line)
            self.expr(target.obj)
            self.expr(args[1])
            self.emit(Op.ATOMIC_ADD, target.name, line)
            self._note_field(target.obj, target.name)
            return True
        if name == "park":
            self.emit(Op.PARK, None, line)
            return False
        if name == "unpark":
            self.expr(args[0])
            self.emit(Op.UNPARK, None, line)
            return False
        if name == "wait":
            self.expr(args[0])
            self.emit(Op.WAIT, None, line)
            return False
        if name == "notify":
            self.expr(args[0])
            self.emit(Op.NOTIFY, None, line)
            return False
        if name == "notifyAll":
            self.expr(args[0])
            self.emit(Op.NOTIFYALL, None, line)
            return False
        if name == "len":
            self.expr(args[0])
            self.emit(Op.ARRAYLEN, None, line)
            return True
        if name == "cast":
            target = args[0]
            if not isinstance(target, A.Name):
                raise self.error("cast(Class, expr) needs a class name", line)
            if target.ident not in self.unit.class_names:
                raise self.error(f"unknown class {target.ident!r}", line)
            self.expr(args[1])
            self.emit(Op.CHECKCAST, target.ident, line)
            self.jclass.referenced.add(target.ident)
            return True
        if name == "i2d":
            self.expr(args[0])
            self.emit(Op.I2D, None, line)
            return True
        if name == "d2i":
            self.expr(args[0])
            self.emit(Op.D2I, None, line)
            return True
        raise self.error(f"unhandled builtin {name}", line)
