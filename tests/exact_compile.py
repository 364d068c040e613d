"""Exact-compile check: does a change move any guest-JIT compiled code?

Runs the ledger's two profiles in-process, ``run_suite(units,
schedule_seed=1, **PROFILES[p])`` for ``p`` in ``roster`` and
``registry-short`` (units and profiles from ``benchmarks/e2e/child.py``,
imported read-only), and writes one JSON file with:

- per compile, in compile order: the method, the sha256 of a canonical
  dump of ``(instrs, consts)`` and of ``(deopt_meta, virtual_objects)``;
- per result: its fingerprint, ``counters.instructions``,
  ``counters.deopts`` and ``vm.jit.stats.phase_cycles`` (Table 16).

Run it once per tree, then diff the two files::

    PYTHONPATH=src python tests/exact_compile.py --out new.json
    PYTHONPATH=OTHER/src python tests/exact_compile.py --out old.json
    python tests/exact_compile.py --compare old.json new.json

``make exact-compile`` does the first step.  The file has no ``test_``
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.join(os.path.dirname(HERE), "benchmarks", "e2e")
PROFILE_NAMES = ("roster", "registry-short")


def _dump(value) -> str:
    """A canonical text for a compiled-code value: methods as their
    ``qualified`` name, classes as their ``name``, other objects by
    their slots; never a ``repr`` that could carry an address."""
    t = type(value)
    if value is None or t in (bool, int, float, str):
        return repr(value)
    if t in (tuple, list):
        return t.__name__[0] + "(" + ",".join(map(_dump, value)) + ")"
    if t in (set, frozenset):
        return "s(" + ",".join(sorted(map(_dump, value))) + ")"
    if t is dict:
        return "d(" + ",".join(sorted(
            _dump(k) + ":" + _dump(v) for k, v in value.items())) + ")"
    if isinstance(getattr(value, "qualified", None), str):
        return "M:" + value.qualified
    if isinstance(getattr(value, "name", None), str):
        return t.__name__ + ":" + value.name
    slots = [s for c in t.__mro__ for s in getattr(c, "__slots__", ())]
    fields = [(s, getattr(value, s, None)) for s in slots] \
        or sorted(getattr(value, "__dict__", {}).items())
    return t.__name__ + "{" + ",".join(
        f"{k}={_dump(v)}" for k, v in fields) + "}"


def digests(code) -> tuple[str, str]:
    """sha256 of the code and of the deopt metadata of a CompiledCode."""
    def sha(value) -> str:
        return hashlib.sha256(_dump(value).encode()).hexdigest()
    return (sha((code.instrs, code.consts)),
            sha((code.deopt_meta, code.virtual_objects)))


def run_profile(profile: str) -> dict:
    """One in-process sweep of ``profile`` with every compile recorded."""
    if E2E not in sys.path:
        sys.path.insert(0, E2E)
    import child
    import repro.jit.jit as jit_mod
    from repro.faults.resilience import run_suite

    compiles: list = []
    lower = jit_mod.lower

    def recording_lower(*args, **kwargs):
        code = lower(*args, **kwargs)
        compiles.append([code.method.qualified, *digests(code)])
        return code

    units = child.units_of(profile)
    jit_mod.lower = recording_lower
    try:
        suite = run_suite(units, schedule_seed=1, **child.PROFILES[profile])
    finally:
        jit_mod.lower = lower
    # Results keep sweep order; a unit that failed is absent from them.
    results, rest = {}, list(suite.results)
    for bench in units:
        if not rest or rest[0].benchmark != bench.name:
            continue
        r = rest.pop(0)
        jit = r.vm.jit
        results[child.unit_id(bench)] = {
            "fingerprint": r.fingerprint(),
            "instructions": r.vm.counters.instructions,
            "deopts": r.vm.counters.deopts,
            "phase_cycles": dict(jit.stats.phase_cycles) if jit else None,
        }
    return {"compiles": compiles, "results": results}


def compare(old: dict, new: dict) -> list[str]:
    """Every difference between two outputs."""
    problems = []
    for profile in sorted(set(old) | set(new)):
        a, b = old.get(profile), new.get(profile)
        if a is None or b is None:
            problems.append(f"{profile}: only in one file")
            continue
        if len(a["compiles"]) != len(b["compiles"]):
            problems.append(f"{profile}: {len(a['compiles'])} compiles "
                            f"against {len(b['compiles'])}")
        for i, (x, y) in enumerate(zip(a["compiles"], b["compiles"])):
            if x != y:
                problems.append(f"{profile}: compile {i} {x[0]} differs")
        for unit in sorted(set(a["results"]) | set(b["results"])):
            if a["results"].get(unit) != b["results"].get(unit):
                problems.append(f"{profile}: result {unit} differs")
    return problems


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="exact-compile.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        old, new = map(_load, args.compare)
        for profile in sorted(set(old) & set(new)):
            print(f"{profile}: {len(new[profile]['compiles'])} compiles")
        problems = compare(old, new)
        print("\n".join(problems) if problems else "identical")
        return 1 if problems else 0
    out = {}
    for profile in PROFILE_NAMES:
        out[profile] = run_profile(profile)
        print(f"{profile}: {len(out[profile]['compiles'])} compiles, "
              f"{len(out[profile]['results'])} results")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
