"""Per-layer tracing of semispec from outside the package.

Every public function of each layer module is replaced, in every
``semispec.*`` namespace that holds it, by a wrapper that records a span
(id, name, start, end, parent id) and per-name aggregates: calls, self time,
inclusive time and ResourceErrors raised. Callers import functions with
``from .x import f``, so replacing the name only in its defining module
would miss them. The table kernels behind ``core`` are traced where other
layers call them; calls inside the core are not wrapped.

A layer's self time is its wrappers' time minus the time of wrapped calls
made inside them. Nothing in semispec waits on a thread, queue or lock, so
no waiting time is recorded.

A name called more than SPAN_CAP times in a run (``poly.bool_eval`` runs
about a million times in ``verify``) gets aggregates only: its spans are
dropped when they are written out. A name the package no longer has is reported
as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import sys
import time
import types
from typing import Callable, Dict, List, Optional

LAYERS = ("kernel", "poly", "presented", "ideals", "localize", "spectra", "sheaf", "valuation", "accept", "cli")
# Class methods traced, as (layer, class, method, traced name).
METHODS = [
    ("sheaf", "SheafContext", "__init__", "sheaf.SheafContext"),
    ("presented", "CongruenceIndex", "congruent", "presented.CongruenceIndex.congruent"),
]
# Bit and term-arithmetic helpers called inside nearly every inner loop of
# their own layer: wrapping them would cost more than the work they do, and
# their time stays in the same layer as their caller's self time.
UNTRACED = {
    "kernel.bits", "kernel.mask_of", "kernel.popcount",
    "presented.term_add", "presented.term_from_items", "presented.term_mul",
    "presented.term_scale", "presented.term_within",
}
SPAN_CAP = 100_000


class Stat:
    __slots__ = ("layer", "calls", "self_s", "incl_s", "depth", "refused")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.refused = 0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        self.nat_gensets: set = set()
        self.lattice_filtered = False  # set inside spec/sp once all_ideals returns
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # [child time, span id] per open call
        self._ids = itertools.count()

    def bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def active(self, name: str) -> bool:
        st = self.stats.get(name)
        return st is not None and st.depth > 0

    # -- wrapping --------------------------------------------------------------
    def wrap(self, name: str, layer: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        from semispec.errors import ResourceError

        st = self.stats[name] = Stat(layer)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except ResourceError as exc:
                if not getattr(exc, "traced_origin", None):
                    exc.traced_origin = name
                    st.refused += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                st.depth -= 1
                dur = t1 - t0
                st.calls += 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.incl_s += dur
                if parent is not None:
                    parent[0] += dur
                if st.calls <= SPAN_CAP:
                    spans.append((frame[1], name, t0, t1, parent[1] if parent else None))
            if hook is not None:
                hook(tracer, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target the package has."""
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = _module(f"semispec.{layer}")
            if mod is None:
                continue
            for attr, fn in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED or not _own_function(fn, mod):
                    continue
                targets[id(fn)] = (fn, self.wrap(name, layer, fn, HOOKS.get(name)))
        core = _core_module()
        wrapped_core = {}
        for attr, fn in sorted(vars(core).items()) if core is not None else ():
            if attr.startswith("_") or not (inspect.isfunction(fn) or inspect.isbuiltin(fn)):
                continue
            if getattr(fn, "__module__", core.__name__) == core.__name__:
                name = f"core.{attr}"
                wrapped_core[attr] = self.wrap(name, "core", fn, HOOKS.get(name))
                targets[id(fn)] = (fn, wrapped_core[attr])
        # The core is traced at its boundary: other modules see a stand-in
        # holding the wrappers, while calls inside the core stay unwrapped.
        if core is not None:
            proxy = types.ModuleType(core.__name__, core.__doc__)
            proxy.__dict__.update(vars(core))
            proxy.__dict__.update(wrapped_core)
        # Rebind every alias in every other semispec namespace.
        for modname, mod in list(sys.modules.items()):
            if mod is None or mod is core or not (modname == "semispec" or modname.startswith("semispec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if core is not None and value is core:
                    setattr(mod, attr, proxy)
                    continue
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(_module(f"semispec.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, meth, self.wrap(name, layer, fn, HOOKS.get(name)))

    def reset(self) -> None:
        """Forget what set-up did, keeping the wrappers in place."""
        for st in self.stats.values():
            st.calls, st.self_s, st.incl_s, st.refused = 0, 0.0, 0.0, 0
        self.counters.clear()
        self.nat_gensets.clear()
        self.spans.clear()

    # -- output ----------------------------------------------------------------
    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["ideals.nat_gensets_distinct"] = len(self.nat_gensets)
        return {
            "stats": {
                n: {"layer": s.layer, "calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s, "refused": s.refused}
                for n, s in self.stats.items()
            },
            "counters": counters,
        }

    def write_spans(self, path: str) -> None:
        """Spans as rows of (id, name index, start, end, parent id), times in
        integer nanoseconds from the first span."""
        hot = {n for n, s in self.stats.items() if s.calls > SPAN_CAP}
        names = sorted(self.stats)
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            (i, index[n], round((a - t0) * 1e9), round((b - t0) * 1e9), p)
            for i, n, a, b, p in self.spans
            if n not in hot
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent"], "names": names,
                       "aggregate_only": sorted(hot), "spans": rows}, fh, separators=(",", ":"))


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _core_module():
    """The active table-kernel module: the backend's choice if the package
    still selects one, else the pure core."""
    backend = _module("semispec._backend")
    if backend is not None and hasattr(backend, "core"):
        return backend.core
    return _module("semispec._purecore")


def _own_function(fn, mod) -> bool:
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not inspect.isgeneratorfunction(fn)


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens


def _all_ideals(t: Tracer, args, result, dur) -> None:
    t.bump("ideals.all_ideals.returned", len(result))
    if t.active("spectra.spec_enumerate") or t.active("spectra.sp_enumerate"):
        t.bump("spectra.ideals_examined", len(result))
        t.lattice_filtered = True


def _ideal_closure(t: Tracer, args, result, dur) -> None:
    if t.active("ideals.all_ideals"):
        t.bump("ideals.all_ideals.closures")


def _points(t: Tracer, args, result, dur) -> None:
    # Only spectra found by filtering the ideal lattice; sp on a large
    # idempotent semiring takes the homomorphism route and examines none.
    if t.lattice_filtered:
        t.bump("spectra.points", result.npoints)
        t.lattice_filtered = False


def _nat_member(t: Tracer, args, result, dur) -> None:
    t.nat_gensets.add(tuple(sorted(set(args[0]))))


def _quotient(t: Tracer, args, result, dur) -> None:
    t.bump("presented.quotient_classes", result[0].size)


def _congruent(t: Tracer, args, result, dur) -> None:
    if t.active("presented.finite_quotient"):
        t.bump("presented.quotient_queries")


def _criterion(t: Tracer, args, result, dur) -> None:
    t.bump(f"accept.{args[0]}_s", dur)


def _load(t: Tracer, args, result, dur) -> None:
    ws = os.environ.get("SEMISPEC_WORKSPACE")
    if ws and os.path.dirname(os.path.abspath(args[0])) == os.path.abspath(ws):
        t.bump("cli.workspace_bytes_read", os.path.getsize(args[0]))


HOOKS = {
    "ideals.all_ideals": _all_ideals,
    "core.ideal_closure_mask": _ideal_closure,
    "spectra.spec_enumerate": _points,
    "spectra.sp_enumerate": _points,
    "ideals.nat_ideal_member": _nat_member,
    "presented.finite_quotient": _quotient,
    "presented.CongruenceIndex.congruent": _congruent,
    "accept.run_criterion": _criterion,
    "kernel.load_semiring": _load,
}


def workspace_snapshot() -> Dict[str, tuple]:
    """(size, mtime) of every file in the workspace, to count bytes written."""
    ws = os.environ.get("SEMISPEC_WORKSPACE")
    if not ws or not os.path.isdir(ws):
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(ws) if e.is_file()}


def bytes_written(before: Dict[str, tuple], after: Dict[str, tuple]) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))
