"""Per-layer spans for ghwave, recorded from outside the program.

`Tracer.wrap` turns a function into one that records a span around each call:
its name, the calling thread, its inclusive duration and its self time (the
duration minus the spans it directly contains in the same thread).  Spans are
folded into per-name totals as they close, so a traced run with a few hundred
thousand integrator steps keeps a few dozen counters, not a span list.

`wrap_package` replaces every binding of a traced object across the modules
of a package, because `from .dynamics import sample_attractor` gives
`harness` its own name for the function: patching `dynamics` alone would
miss every call made through that name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    threads: set[int] = field(default_factory=set)


class Tracer:
    """Span recorder with thread-local nesting and per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[str, SpanStats] = {}

    def wrap(self, name: str, fn):
        clock, local = self._clock, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]  # time covered by spans this call directly contains
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self._close(name, dur, dur - children[0])

        traced.__traced_original__ = fn
        return traced

    def _close(self, name: str, dur: float, self_dur: float) -> None:
        tid = threading.get_ident()
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total_s += dur
            st.self_s += self_dur
            st.threads.add(tid)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {
                k: {"calls": v.calls, "s": v.total_s, "self_s": v.self_s, "threads": len(v.threads)}
                for k, v in sorted(self.stats.items())
            }


def _package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))]


def public_functions(module) -> list[str]:
    """Names of the public functions a module defines (not those it imports)."""
    return [
        k
        for k, v in vars(module).items()
        if not k.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
    ]


def wrap_package(
    tracer: Tracer,
    package: str,
    functions: dict[str, str],
    methods: dict[tuple[str, str], str],
) -> list[str]:
    """Wrap every binding of the given functions and methods; return the bindings.

    `functions` maps "module.name" (module relative to the package) to a span
    name; `methods` maps ("module.Class", "method") to a span name, and
    several methods may share one span name.  A binding this cannot see (a
    default argument, a registry dict) shows up as a traced call count below
    its expected value.
    """
    modules = _package_modules(package)
    bound: list[str] = []
    for target, span in functions.items():
        mod_name, attr = target.rsplit(".", 1)
        orig = getattr(sys.modules[f"{package}.{mod_name}"], attr)
        if getattr(orig, "__traced_original__", None) is not None:
            raise RuntimeError(f"{target} is already wrapped")
        wrapped = tracer.wrap(span, orig)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)
                    bound.append(f"{m.__name__}.{k}")
    for (cls_path, meth), span in methods.items():
        mod_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
        setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
        bound.append(f"{package}.{cls_path}.{meth}")
    return bound


def check_counts(expected: dict[str, int], spans: dict[str, dict]) -> list[str]:
    """Mismatches between expected and traced call counts (empty when all match)."""
    out = []
    for name, want in sorted(expected.items()):
        got = spans.get(name, {}).get("calls", 0)
        if got != want:
            out.append(f"{name}: expected {want} calls, traced {got}")
    return out
