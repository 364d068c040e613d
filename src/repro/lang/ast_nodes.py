"""AST node definitions for the JL guest language.

All nodes are plain dataclasses; the parser produces them and codegen
consumes them.  Every node carries a source line for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass


# ----------------------------------------------------------------------
# Declarations.
# ----------------------------------------------------------------------

@dataclass
class ClassDecl:
    name: str
    super_name: str
    interfaces: list[str]
    is_interface: bool
    fields: list["FieldDecl"]
    methods: list["MethodDecl"]
    line: int = 0


@dataclass
class FieldDecl:
    name: str
    static: bool
    init: "Expr | None"     # only meaningful for static fields
    line: int = 0


@dataclass
class MethodDecl:
    name: str
    params: list[str]
    body: "list[Stmt] | None"   # None for native/abstract
    static: bool
    native: bool
    synchronized: bool
    line: int = 0
    end_line: int = 0


# ----------------------------------------------------------------------
# Statements.
# ----------------------------------------------------------------------

class Stmt:
    pass


@dataclass
class VarDecl(Stmt):
    name: str
    init: "Expr"
    line: int = 0


@dataclass
class Assign(Stmt):
    target: "Expr"           # Name, FieldAccess, StaticAccess or Index
    value: "Expr"
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: "Expr"
    line: int = 0


@dataclass
class If(Stmt):
    cond: "Expr"
    then_body: list[Stmt]
    else_body: list[Stmt]
    line: int = 0


@dataclass
class While(Stmt):
    cond: "Expr"
    body: list[Stmt]
    line: int = 0


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: "Expr | None"
    step: Stmt | None
    body: list[Stmt]
    line: int = 0


@dataclass
class Return(Stmt):
    value: "Expr | None"
    line: int = 0


@dataclass
class Break(Stmt):
    line: int = 0


@dataclass
class Continue(Stmt):
    line: int = 0


@dataclass
class Synchronized(Stmt):
    lock: "Expr"
    body: list[Stmt]
    line: int = 0


# ----------------------------------------------------------------------
# Expressions.
# ----------------------------------------------------------------------

class Expr:
    pass


@dataclass
class Literal(Expr):
    value: object            # int, float, str or None (null)
    line: int = 0


@dataclass
class Name(Expr):
    ident: str
    line: int = 0


@dataclass
class This(Expr):
    line: int = 0


@dataclass
class Unary(Expr):
    op: str                  # '-', '!', '~'
    operand: Expr
    line: int = 0


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass
class ShortCircuit(Expr):
    op: str                  # '&&' or '||'
    lhs: Expr
    rhs: Expr
    line: int = 0


@dataclass
class FieldAccess(Expr):
    obj: Expr
    name: str
    line: int = 0


@dataclass
class StaticAccess(Expr):
    class_name: str
    name: str
    line: int = 0


@dataclass
class Index(Expr):
    array: Expr
    index: Expr
    line: int = 0


@dataclass
class Call(Expr):
    """A call whose callee shape decides the invoke kind in codegen:

    - ``Name`` that is a class name        -> INVOKESTATIC
    - ``Name`` that is a local/param       -> INVOKEHANDLE (closure call)
    - ``FieldAccess``                      -> INVOKEVIRTUAL (or closure call
      if the method does not exist — resolved dynamically)
    - builtins (cas, len, park, ...)       -> dedicated opcodes
    """

    callee: Expr             # Name / FieldAccess / StaticAccess
    args: list[Expr]
    line: int = 0


@dataclass
class New(Expr):
    class_name: str
    args: list[Expr]
    line: int = 0


@dataclass
class NewArray(Expr):
    kind: str                # 'int', 'double' or 'ref'
    length: Expr
    line: int = 0


@dataclass
class Lambda(Expr):
    params: list[str]
    body: list[Stmt]         # statement body; single-expression lambdas
    line: int = 0            # are parsed into [Return(expr)]


@dataclass
class InstanceOf(Expr):
    obj: Expr
    class_name: str
    line: int = 0
