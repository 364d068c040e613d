"""Class, method and field model of the simulated JVM.

Classes form a single-inheritance hierarchy with interfaces, like the
JVM.  Method resolution walks the superclass chain; interface methods
resolve through the receiver's class.  The model also carries everything
the CK software-complexity metrics (Section 7.1) need: declared methods,
field sets, inheritance edges and coupling edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkError
from repro.jvm.bytecode import Instr, Op, validate_code


@dataclass
class JField:
    """A declared instance or static field."""

    name: str
    owner: str = ""
    static: bool = False
    volatile: bool = False


class JMethod:
    """A guest method: bytecode plus metadata.

    Parameters
    ----------
    name:
        Simple method name.  Overloading is resolved by the front-end, so
        ``(owner, name)`` is unique.
    owner:
        Name of the declaring class.
    params:
        Number of declared parameters, *excluding* the receiver.
    code:
        Bytecode; ``None`` for native and abstract methods.
    """

    __slots__ = (
        "name", "owner", "params", "max_locals", "code", "static",
        "native", "synchronized", "abstract", "accessed_fields",
        "called", "invocation_count", "backedge_count", "compiled",
        "compile_failures", "disabled_speculations", "source_lines",
        "call_profile",
    )

    def __init__(
        self,
        name: str,
        owner: str,
        params: int,
        code: list[Instr] | None = None,
        *,
        max_locals: int = 0,
        static: bool = False,
        native: bool = False,
        synchronized: bool = False,
        abstract: bool = False,
    ) -> None:
        self.name = name
        self.owner = owner
        self.params = params
        self.max_locals = max_locals
        self.code = code
        self.static = static
        self.native = native
        self.synchronized = synchronized
        self.abstract = abstract
        # Static metadata for CK metrics (filled by codegen/linker).
        self.accessed_fields: set[tuple[str, str]] = set()
        self.called: set[tuple[str, str]] = set()
        # JIT profiling state.
        self.invocation_count = 0
        self.backedge_count = 0
        self.call_profile: dict | None = None   # pc -> set of receiver classes
        self.compiled = None          # CompiledCode or None
        self.compile_failures = 0
        self.disabled_speculations: set[object] = set()
        self.source_lines = 0

    @property
    def qualified(self) -> str:
        return f"{self.owner}.{self.name}"

    @property
    def nargs(self) -> int:
        """Total argument slots including the receiver for instance methods."""
        return self.params + (0 if self.static else 1)

    def validate(self) -> None:
        """Check bytecode well-formedness (branch targets, terminators).

        Monitor balance is verified here too: unbalanced
        MONITORENTER/MONITOREXIT used to surface mid-run as a scheduler
        assertion ("released monitor it does not own"); failing at link
        time names the offending method instead.
        """
        if self.code is not None:
            validate_code(self.code)
            if self.max_locals < self.nargs:
                raise LinkError(
                    f"{self.qualified}: max_locals {self.max_locals} < args {self.nargs}"
                )
            from repro.sanitize.verify import check_monitor_balance

            check_monitor_balance(self.code, self.qualified)

    def __repr__(self) -> str:
        return f"<JMethod {self.qualified}/{self.params}>"


class JClass:
    """A guest class or interface."""

    def __init__(
        self,
        name: str,
        super_name: str | None = "Object",
        *,
        interfaces: tuple[str, ...] = (),
        is_interface: bool = False,
    ) -> None:
        self.name = name
        self.super_name = None if name == "Object" else super_name
        self.interfaces = tuple(interfaces)
        self.is_interface = is_interface
        self.fields: dict[str, JField] = {}
        self.methods: dict[str, JMethod] = {}
        self.static_values: dict[str, object] = {}
        # Link-time state.
        self.superclass: JClass | None = None
        self.linked = False
        self.loaded = False            # set when first instantiated/used
        self.field_layout: dict[str, int] = {}   # field name -> word offset
        self.instance_words = 0
        self._method_cache: dict[str, JMethod] = {}
        self.subclasses: list[str] = []          # direct subclasses (for NOC)
        self.depth = 0                           # DIT

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def add_field(self, fld: JField) -> None:
        fld.owner = self.name
        self.fields[fld.name] = fld
        if fld.static:
            self.static_values[fld.name] = 0

    def add_method(self, method: JMethod) -> None:
        method.owner = self.name
        self.methods[method.name] = method

    # ------------------------------------------------------------------
    # Resolution (valid after linking).
    # ------------------------------------------------------------------
    def resolve_method(self, name: str) -> JMethod:
        """Find ``name`` in this class or the closest superclass."""
        cached = self._method_cache.get(name)
        if cached is not None:
            return cached
        cls: JClass | None = self
        while cls is not None:
            method = cls.methods.get(name)
            if method is not None:
                self._method_cache[name] = method
                return method
            cls = cls.superclass
        raise LinkError(f"method {self.name}.{name} not found")

    def has_method(self, name: str) -> bool:
        cls: JClass | None = self
        while cls is not None:
            if name in cls.methods:
                return True
            cls = cls.superclass
        return False

    def resolve_field_owner(self, name: str) -> JClass:
        """Class in the superclass chain that declares field ``name``."""
        cls: JClass | None = self
        while cls is not None:
            if name in cls.fields:
                return cls
            cls = cls.superclass
        raise LinkError(f"field {self.name}.{name} not found")

    def is_subtype_of(self, other: str) -> bool:
        """Nominal subtyping: superclass chain plus transitive interfaces."""
        if other == "Object":
            return True
        cls: JClass | None = self
        while cls is not None:
            if cls.name == other or other in cls.interfaces:
                return True
            cls = cls.superclass
        return False

    def all_instance_fields(self) -> list[JField]:
        """Instance fields, superclass fields first (layout order)."""
        chain: list[JClass] = []
        cls: JClass | None = self
        while cls is not None:
            chain.append(cls)
            cls = cls.superclass
        out: list[JField] = []
        for cls in reversed(chain):
            out.extend(f for f in cls.fields.values() if not f.static)
        return out

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"<JClass {kind} {self.name}>"


class ClassPool:
    """All classes known to a VM instance, with linking.

    Linking computes superclass pointers, field layouts (word offsets used
    by the cache simulator), inheritance depth (DIT) and direct-subclass
    lists (NOC).
    """

    def __init__(self) -> None:
        self.classes: dict[str, JClass] = {}
        object_cls = JClass("Object", None)
        object_cls.add_method(
            JMethod("init", "Object", 0, [Instr(Op.RETURN)], max_locals=1)
        )
        object_cls.linked = True
        object_cls.instance_words = 1
        self.classes["Object"] = object_cls

    def define(self, cls: JClass) -> JClass:
        """Add ``cls``, unlinked: link state belongs to the pool that
        links, and a cached Program's classes may have been linked
        against an earlier VM's pool (its ``Object``, its subclass
        lists), which CK's NOC and DIT would otherwise read."""
        if cls.name in self.classes:
            raise LinkError(f"duplicate class {cls.name}")
        cls.linked = False
        cls.superclass = None
        cls.subclasses = []
        cls.field_layout = {}
        cls._method_cache = {}
        self.classes[cls.name] = cls
        return cls

    def get(self, name: str) -> JClass:
        try:
            return self.classes[name]
        except KeyError:
            raise LinkError(f"class {name} not found") from None

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def link_all(self) -> None:
        for cls in list(self.classes.values()):
            self._link(cls, set())

    def _link(self, cls: JClass, visiting: set[str]) -> None:
        if cls.linked:
            return
        if cls.name in visiting:
            raise LinkError(f"inheritance cycle through {cls.name}")
        visiting.add(cls.name)
        if cls.super_name is not None:
            parent = self.get(cls.super_name)
            self._link(parent, visiting)
            cls.superclass = parent
            cls.depth = parent.depth + 1
            if cls.name not in parent.subclasses:
                parent.subclasses.append(cls.name)
        # Interfaces must exist (but contribute no layout).
        for iface in cls.interfaces:
            self._link(self.get(iface), visiting)
        # Field layout: superclass fields first.
        offset = 0
        for fld in cls.all_instance_fields():
            cls.field_layout[fld.name] = offset
            offset += 1
        cls.instance_words = max(offset, 1)
        for method in cls.methods.values():
            method.validate()
        cls.linked = True
        visiting.discard(cls.name)

    def loaded_classes(self) -> list[JClass]:
        """Classes touched during execution (the CK metric population)."""
        return [c for c in self.classes.values() if c.loaded]
