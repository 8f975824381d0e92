"""Outside-in span tracer for the addcomb package.

The tracer never edits the library. It wraps every public module-level
function of each layer module and rebinds the wrapper wherever the original
object appears in an ``addcomb.*`` namespace, matched by identity, so a
function imported by name into another module (``sumset`` into pipeline,
covering, bohr and bourgain) is traced at every call site. Tuples of such
functions (``verify.CRITERIA``) are rebuilt with the wrappers, keeping
``__name__``, so ``run_suite``'s own loop is what gets timed. The lazy group
tables (``FinAbGroup.coords_table`` / ``negation_permutation``) are traced as
one span name, ``groups.tables``.

A layer module or table method that no longer exists is recorded in
``absent`` instead of raising, so the benchmark survives refactors that move
or delete functions. So is a work-count or input-key hook that fails on a
changed signature or result: the metric it feeds is named in ``absent``
rather than silently reading low.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from types import FunctionType, ModuleType

import numpy as np

#: The package's modules, one layer each; span names are "<layer>.<function>".
LAYERS = ("groups", "sets", "fourier", "spectrum", "bohr", "covering",
          "bourgain", "pipeline", "verify", "serialize", "cli")

#: FinAbGroup methods that build the lazily cached group tables.
TABLE_METHODS = ("coords_table", "negation_permutation")

# Span record layout (a list, filled in by the wrapper).
NAME, START, END, PARENT, INSTANCE, WORK, KEY, NESTED = range(8)


def _mask_digest(A) -> bytes:
    h = hashlib.blake2b(repr(A.group.invariants).encode(), digest_size=16)
    h.update(A.mask.tobytes())
    return h.digest()


def _values_digest(f) -> bytes:
    if hasattr(f, "mask"):
        return b"set" + _mask_digest(f)
    arr = np.ascontiguousarray(np.asarray(f, dtype=np.float64))
    return b"arr" + hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts: span name -> f(args, kwargs, result) -> number or tuple.
WORK_COUNTS = {
    # (|A|*|B|, |G|); the route decides which one is reported
    "sets.sumset": lambda a, k, r: (_arg(a, k, 0, "A").cardinality
                                    * _arg(a, k, 1, "B").cardinality,
                                    r.group.order),
    "fourier.transform": lambda a, k, r: r.values.size,
    "bohr.bohr_distance_table": lambda a, k, r: (_arg(a, k, 0, "freqs").cardinality
                                                 * r.size),
    # every reached element relaxes every finite-rho* step
    "bourgain.birkhoff_metric": lambda a, k, r: (int(np.isfinite(r.rho).sum())
                                                 * int(np.isfinite(r.rho_star).sum())),
}

# Names of the work counts above; sumset's depends on the route taken.
_WORK_NAMES = {
    "fourier.transform": "points",
    "bohr.bohr_distance_table": "freq_points",
    "bourgain.birkhoff_metric": "relaxations",
}

# The metrics each work-count hook feeds, named in ``absent`` when it fails.
_WORK_METRICS = {name: (f"{name}.{work}",) for name, work in _WORK_NAMES.items()}
_WORK_METRICS["sets.sumset"] = ("sets.sumset.direct.pairs", "sets.sumset.spectral.points")

# Redundancy keys: span name -> f(args, kwargs) -> hashable input identity.
INPUT_KEYS = {
    "sets.sumset": lambda a, k: tuple(sorted((_mask_digest(_arg(a, k, 0, "A")),
                                              _mask_digest(_arg(a, k, 1, "B"))))),
    "fourier.transform": lambda a, k: _values_digest(_arg(a, k, 0, "f")),
    "spectrum.lspec": lambda a, k: (_mask_digest(_arg(a, k, 0, "A")),
                                    float(_arg(a, k, 1, "delta"))),
}

_HOOK_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class Tracer:
    """In-memory spans: name, start, end, parent span, instance id, work, key."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance: str | None = None
        self.absent: set[str] = set()
        self.traced: set[str] = set()
        self._drained = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        targets: dict[FunctionType, str] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"addcomb.{layer}")
            except ImportError:
                self.absent.add(layer)
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{attr}"
        self.traced.update(targets.values())
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if not isinstance(mod, ModuleType) or not (
                    modname == "addcomb" or modname.startswith("addcomb.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
                elif isinstance(obj, tuple) and any(
                        isinstance(x, FunctionType) and x in wrappers for x in obj):
                    self._rebind(mod, attr, tuple(
                        wrappers.get(x, x) if isinstance(x, FunctionType) else x
                        for x in obj))
        group_cls = getattr(sys.modules.get("addcomb.groups"), "FinAbGroup", None)
        for meth in TABLE_METHODS:
            fn = getattr(group_cls, meth, None)
            if isinstance(fn, FunctionType):
                self._rebind(group_cls, meth, self._wrap(fn, "groups.tables"))
                self.traced.add("groups.tables")
            else:
                self.absent.add(f"groups.FinAbGroup.{meth}")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn: FunctionType, name: str):
        spans, stack, active, absent = self.spans, self._stack, self._active, self.absent
        work, key = WORK_COUNTS.get(name), INPUT_KEYS.get(name)
        work_metrics, key_metric = _WORK_METRICS.get(name, ()), f"{name}.unique_ratio"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance,
                    None, None, active.get(name, 0) > 0]
            if key is not None:
                try:
                    span[KEY] = key(args, kwargs)
                except _HOOK_ERRORS:
                    absent.add(key_metric)
            stack.append(len(spans))
            spans.append(span)
            active[name] = active.get(name, 0) + 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                active[name] -= 1
            if work is not None:
                try:
                    span[WORK] = work(args, kwargs, result)
                except _HOOK_ERRORS:
                    absent.update(work_metrics)
            return result

        return traced

    # -- output -----------------------------------------------------------------

    def drain(self, fh) -> None:
        """Append the spans recorded so far to a trace file and forget them.

        Each line is [name, start, end, parent, instance, work]; parent is
        the line number (from 0, over span lines only) of the enclosing span,
        or -1. Call it only between top-level calls, when no span is open.
        """
        for s in self.spans:
            parent = s[PARENT] + self._drained if s[PARENT] >= 0 else -1
            fh.write(json.dumps([s[NAME], s[START], s[END], parent, s[INSTANCE], s[WORK]],
                                default=_plain) + "\n")
        self._drained += len(self.spans)
        del self.spans[:]


def _plain(x):
    return x.item() if isinstance(x, np.generic) else str(x)


# -- aggregation -------------------------------------------------------------------


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of a list of spans (one pass, or the set-up).

    For each span name: calls, s (inclusive seconds, nested same-name spans
    counted once) and self_s (seconds not covered by child spans). A sumset
    span with a child fourier.convolve span is the spectral route, any other
    the direct route. unique_ratio is distinct inputs over calls.
    """
    child = [0.0] * len(spans)
    spectral = set()
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            if s[NAME] == "fourier.convolve" and spans[p][NAME] == "sets.sumset":
                spectral.add(p)
    out: dict[str, float] = {}
    keys: dict[str, set] = {}

    def add(metric, value):
        out[metric] = out.get(metric, 0) + value

    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if name == "sets.sumset":
            route = "spectral" if i in spectral else "direct"
            name = f"sets.sumset.{route}"
            if s[WORK] is not None:
                pairs, points = s[WORK]
                if route == "direct":
                    add(f"{name}.pairs", pairs)
                else:
                    add(f"{name}.points", points)
            add("sets.sumset.calls", 1)
        elif s[WORK] is not None:
            add(f"{name}.{_WORK_NAMES[name]}", s[WORK])
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", dur - child[i])
        if not s[NESTED]:
            add(f"{name}.s", dur)
        if s[KEY] is not None:
            keys.setdefault(s[NAME], set()).add(s[KEY])
    for name, seen in keys.items():
        out[f"{name}.unique_ratio"] = len(seen) / out[f"{name}.calls"]
    return out
