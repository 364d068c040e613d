"""Object heap of the simulated JVM.

Objects and arrays carry a heap *word address*, assigned bump-pointer
style at allocation.  Addresses feed the cache simulator; allocation
counts feed the ``object``/``array`` metrics; allocation sizes feed the
allocation cycle cost.

Guest values are represented directly as Python values:

- guest ``int``/``long``  -> Python ``int``
- guest ``double``        -> Python ``float``
- guest ``String``        -> Python ``str`` (immutable, no field access)
- guest references        -> :class:`JObject` / :class:`JArray`
- guest ``null``          -> ``None``
"""

from __future__ import annotations

from repro.errors import (
    GuestBoundsError,
    GuestNullPointerError,
    GuestOutOfMemoryError,
    VMError,
)
from repro.jvm.classfile import JClass
from repro.jvm.counters import Counters


class JObject:
    """An instance of a guest class; fields are stored by layout offset."""

    __slots__ = ("jclass", "addr", "values", "monitor", "meta", "shadow")

    def __init__(self, jclass: JClass, addr: int) -> None:
        self.jclass = jclass
        self.addr = addr
        self.values = [0] * jclass.instance_words
        self.monitor = None       # lazily created by the scheduler
        self.meta = None          # host-side payload for intrinsic objects
        # Per-slot shadow state of the race sanitizer (repro.sanitize.hb),
        # keyed on the object itself because TLAB addresses recycle.
        self.shadow = None

    def get(self, name: str) -> object:
        return self.values[self.jclass.field_layout[name]]

    def put(self, name: str, value: object) -> None:
        self.values[self.jclass.field_layout[name]] = value

    def __repr__(self) -> str:
        return f"<{self.jclass.name}@{self.addr:x}>"


class JArray:
    """A guest array.  ``kind`` is ``'int'``, ``'double'`` or ``'ref'``.

    Arrays are objects on the JVM: they can be locked (``monitor``).
    """

    __slots__ = ("kind", "addr", "data", "monitor", "shadow")

    _DEFAULTS = {"int": 0, "double": 0.0, "ref": None}

    def __init__(self, kind: str, length: int, addr: int) -> None:
        if kind not in self._DEFAULTS:
            raise VMError(f"bad array kind {kind!r}")
        if length < 0:
            raise GuestBoundsError(f"negative array size {length}")
        self.kind = kind
        self.addr = addr
        self.data = [self._DEFAULTS[kind]] * length
        self.monitor = None
        self.shadow = None        # sanitizer per-element state

    def __len__(self) -> int:
        return len(self.data)

    def check(self, index: int) -> int:
        if not 0 <= index < len(self.data):
            raise GuestBoundsError(
                f"index {index} out of bounds for length {len(self.data)}"
            )
        return index

    def __repr__(self) -> str:
        return f"<{self.kind}[{len(self.data)}]@{self.addr:x}>"


class Heap:
    """Bump-pointer heap with allocation accounting.

    There is no garbage collector: the reproduction's experiments measure
    compiler effects, and host Python reclaims unreachable guest objects.
    Allocation still pays a per-word cycle cost so allocation-heavy
    workloads are slower, as on a real JVM.
    """

    HEADER_WORDS = 2   # mark word + class pointer, as on HotSpot

    #: Small allocations recycle addresses within this window, modelling
    #: TLAB allocation: freshly allocated memory is cache-warm (the
    #: young generation keeps reusing the same lines).  Large objects
    #: get distinct addresses from a plain bump region.
    TLAB_WINDOW_WORDS = 8192
    LARGE_OBJECT_WORDS = 512

    def __init__(self, counters: Counters,
                 limit_words: int | None = None) -> None:
        self.counters = counters
        self._tlab_base = 0x10000
        self._tlab_offset = 0
        self._large_next = 0x10000 + self.TLAB_WINDOW_WORDS
        #: Optional -Xmx analogue: allocations past this many total
        #: words raise GuestOutOfMemoryError (None = unbounded).
        self.limit_words = limit_words
        #: Optional fault-injection hook called with the requested words
        #: before every allocation (see repro.faults.FaultInjector).
        self.fault_hook = None
        #: Optional flight recorder (repro.trace); set only when its
        #: ``alloc`` category is enabled, so the untraced allocation
        #: fast path pays a single None check.
        self.trace = None

    def _check_pressure(self, words: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(words)
        if self.limit_words is not None \
                and self.counters.allocated_words + words > self.limit_words:
            raise GuestOutOfMemoryError(
                f"heap limit exceeded: "
                f"{self.counters.allocated_words + words} > "
                f"{self.limit_words} words")

    def _bump(self, words: int) -> int:
        words += self.HEADER_WORDS
        if words >= self.LARGE_OBJECT_WORDS:
            addr = self._large_next
            self._large_next += words
            return addr
        if self._tlab_offset + words > self.TLAB_WINDOW_WORDS:
            self._tlab_offset = 0
        addr = self._tlab_base + self._tlab_offset
        self._tlab_offset += words
        return addr

    def new_object(self, jclass: JClass) -> JObject:
        jclass.loaded = True
        if self.fault_hook is not None or self.limit_words is not None:
            self._check_pressure(jclass.instance_words)
        obj = JObject(jclass, self._bump(jclass.instance_words))
        self.counters.object += 1
        self.counters.allocated_words += jclass.instance_words
        if self.trace is not None:
            self.trace.on_alloc("object", jclass.name, jclass.instance_words)
        return obj

    def new_array(self, kind: str, length: int) -> JArray:
        if self.fault_hook is not None or self.limit_words is not None:
            self._check_pressure(max(length, 1))
        arr = JArray(kind, length, self._bump(max(length, 1)))
        self.counters.array += 1
        self.counters.allocated_words += max(length, 1)
        if self.trace is not None:
            self.trace.on_alloc("array", kind, max(length, 1))
        return arr


def null_check(ref: object) -> object:
    """Raise the guest NPE if ``ref`` is null, else return it."""
    if ref is None:
        raise GuestNullPointerError("null dereference")
    return ref
