"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds every module attribute that refers to it, because the modules import
one another's functions by name (``dichotomy.solve_feasibility`` is the same
object as ``ratlp.solve_feasibility``). Each call becomes a span
``<module>.<function>`` with its parent span; the tracer keeps per-span call
counts, inclusive and self time, and per-group inclusive time that counts
nested calls of a group once. Observers read arguments and results at chosen
spans, so counts are taken where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

TRACED_MODULES = ("model", "graph", "ratlp", "dichotomy", "onedim", "sim", "cli")
PACKAGE = "vass_asym"


def program_modules() -> list:
    """Every loaded module of the program."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions() -> dict[str, Callable]:
    """``<module>.<function>`` -> function, for the public functions each traced
    module defines."""
    out = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == mod.__name__:
                out[f"{short}.{attr}"] = value
    return out


def rebind(old: Callable, new: Callable) -> list[tuple[object, str, Callable]]:
    """Point every program-module attribute bound to ``old`` at ``new``;
    return what was changed so it can be undone."""
    changed = []
    for mod in program_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                changed.append((mod, attr, old))
    return changed


def undo(changed: Iterable[tuple[object, str, Callable]]) -> None:
    for mod, attr, old in changed:
        setattr(mod, attr, old)


def unwrapped_bindings(originals: Iterable[Callable]) -> list[str]:
    """``module.attr`` names that still bind one of ``originals``."""
    ids = {id(fn) for fn in originals}
    return [
        f"{mod.__name__}.{attr}"
        for mod in program_modules()
        for attr, value in vars(mod).items()
        if id(value) in ids
    ]


class Tracer:
    """In-memory span statistics. Single-threaded use only."""

    def __init__(self, groups: dict[str, Iterable[str]] = ()):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.parents: Counter = Counter()  # (parent span, span) -> calls
        self.group_time: Counter = Counter()
        self._group_of: dict[str, list[str]] = defaultdict(list)
        for group, names in dict(groups).items():
            for name in names:
                self._group_of[name].append(group)
        self._group_depth: Counter = Counter()
        self._group_start: dict[str, float] = {}
        self.observers: dict[str, Callable] = {}
        self._stack: list[list] = []  # [span name, time covered by children]
        self._paused = False
        self._changed: list = []
        self.originals: dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        groups = self._group_of.get(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:  # a call an observer makes is the tracer's own
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            for g in groups:
                if tracer._group_depth[g] == 0:
                    tracer._group_start[g] = t0
                tracer._group_depth[g] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                for g in groups:
                    tracer._group_depth[g] -= 1
                    if tracer._group_depth[g] == 0:
                        tracer.group_time[g] += t1 - tracer._group_start[g]
                stack.pop()
                dt = t1 - t0
                tracer.calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[1]
                tracer.parents[(parent, name)] += 1
                if stack:
                    stack[-1][1] += dt
            observer = tracer.observers.get(name)
            if observer is not None:
                o0 = time.perf_counter()
                tracer._paused = True
                try:
                    observer(args, kwargs, result, dt)
                finally:
                    tracer._paused = False
                if stack:  # observer time is the tracer's, not the caller's
                    stack[-1][1] += time.perf_counter() - o0
            return result

        return traced

    def install(self) -> None:
        self.originals = public_functions()
        for name, fn in self.originals.items():
            self._changed += rebind(fn, self._wrap(name, fn))

    def uninstall(self) -> None:
        undo(reversed(self._changed))
        self._changed = []

    def summary(self) -> dict[str, dict]:
        """Per span: calls, inclusive and self time, and calls per parent span
        ("" for calls from outside the program)."""
        parents: dict[str, dict[str, int]] = defaultdict(dict)
        for (parent, name), n in self.parents.items():
            parents[name][parent] = n
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
                "parents": parents[name],
            }
            for name in sorted(self.calls)
        }

    def module_self_time(self) -> dict[str, float]:
        out = {short: 0.0 for short in TRACED_MODULES}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out
