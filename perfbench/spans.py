"""Spans around hypersig's public functions, installed from outside.

The program is not edited. ``Tracer.install`` replaces every public
function of the traced modules with a timing wrapper, in the defining
module and in every other hypersig module that imported the same
function object. Python looks module globals up at call time, so calls
inside one module (``signal_space`` -> ``find_violation``) and across
modules (``frames.frame`` -> ``generating_signal`` -> ``signal_space``)
all pass through the wrappers and get spans with parents.

Spans stay in memory. Counters that need a look at a call's arguments or
result are computed after the item ends, outside every span, so they
add to the tracing overhead but not to any layer's time.
"""

from __future__ import annotations

import inspect
import os
from collections import defaultdict
from functools import wraps
from time import perf_counter

TRACED_MODULES = ("cli", "hypergraph", "signals", "linalg", "frames", "experiments")

# Per-edge helpers: their spans would measure mostly tracing overhead.
UNTRACED = frozenset({"arrangements"})


def _nullspace(args, kwargs, basis):
    m = args[0] if args else kwargs["m"]
    nonzero = [x for v in basis.vectors for x in v if x]
    return {
        "rank": m.ncols - basis.dimension,
        "kernel_dim": basis.dimension,
        "kernel_nnz": len(nonzero),
        "max_bits": max(
            (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in nonzero),
            default=0,
        ),
    }


def _dedupe_rows(args, kwargs, out):
    m = args[0] if args else kwargs["m"]
    return {"rows_in": m.nrows, "rows_kept": out.nrows}


def _assemble(args, kwargs, out):
    return {"rows": out.nrows, "nnz": len(out.entries)}


def _load(args, kwargs, _):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _frame(args, kwargs, result):
    return {"classes": result.fusion.n_classes, "frame_edges": result.frame.n_edges}


COUNTERS = {
    "linalg.nullspace": _nullspace,
    "linalg.dedupe_rows": _dedupe_rows,
    "signals.assemble_constraints": _assemble,
    "hypergraph.load_hypergraph": _load,
    "frames.frame": _frame,
}

# Counters that aggregate by maximum; every other counter is summed.
MAX_COUNTERS = frozenset({"max_bits"})


def span_name(module: str, function: str) -> str:
    """``signals.find_violation``; CLI handlers are named by subcommand,
    ``cmd_frame`` as ``cli.frame``."""
    if module == "cli" and function.startswith("cmd_"):
        return "cli." + function[4:].replace("_", "-")
    return f"{module}.{function}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._pending: list[tuple[dict, object, tuple, dict, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.item: str | None = None

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "item": self.item,
                "name": name,
                "counters": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counters is not None:
                self._pending.append((span, counters, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [getattr(self.package, m) for m in TRACED_MODULES]
        wrappers = {}
        for short, module in zip(TRACED_MODULES, modules):
            for fname, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not fname.startswith("_")
                    and fname not in UNTRACED
                ):
                    wrappers[fn] = self._wrap(span_name(short, fname), fn)
        for module in [self.package, *modules]:
            for fname, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, fname, obj))
                    setattr(module, fname, wrappers[obj])

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def begin_item(self, key: str) -> None:
        self.item = key

    def end_item(self) -> None:
        self.item = None
        for span, counters, args, kwargs, result in self._pending:
            span["counters"] = counters(args, kwargs, result)
        self._pending.clear()


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``s`` (inclusive seconds), ``self_s`` (seconds not
    covered by child spans), ``calls`` and every counter."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = s["end"] - s["start"]
        agg["s"] += duration
        agg["self_s"] += duration - child_time[s["id"]]
        agg["calls"] += 1
        for k, v in s["counters"].items():
            agg[k] = max(agg.get(k, 0), v) if k in MAX_COUNTERS else agg.get(k, 0) + v
    return out
