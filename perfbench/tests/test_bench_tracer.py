"""Self-time arithmetic, binding coverage and the expected-count check."""

import sys
import threading
import types

import pytest

from tracer import Tracer, check_counts, public_functions, wrap_package


class StepClock:
    """Deterministic clock: every reading advances time by one second."""

    def __init__(self):
        self.t = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.t += 1.0
            return self.t


def test_nested_self_time_subtracts_direct_children_only():
    tr = Tracer(clock=StepClock())
    leaf = tr.wrap("leaf", lambda: None)  # 2 readings -> 1 s

    def mid_body():
        leaf()
        leaf()

    mid = tr.wrap("mid", mid_body)  # 2 own readings + 2 leaves (4 readings) -> 5 s

    def top_body():
        mid()

    top = tr.wrap("top", top_body)  # 2 own readings + mid's 6 -> 7 s
    top()
    s = tr.snapshot()
    assert s["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0, "threads": 1}
    assert s["mid"]["s"] == 5.0 and s["mid"]["self_s"] == 3.0
    assert s["top"]["s"] == 7.0 and s["top"]["self_s"] == 2.0


def test_spans_in_another_thread_do_not_reduce_self_time():
    tr = Tracer(clock=StepClock())
    worker = tr.wrap("worker", lambda: None)

    def parent_body():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    parent = tr.wrap("parent", parent_body)
    parent()
    worker()  # and once in the main thread, outside any span
    s = tr.snapshot()
    assert s["parent"]["s"] == s["parent"]["self_s"] == 3.0  # worker covered 1 s of it
    assert s["worker"] == {"calls": 2, "s": 2.0, "self_s": 2.0, "threads": 2}


def test_exceptions_still_close_the_span():
    tr = Tracer(clock=StepClock())

    def boom():
        raise KeyError("x")

    f = tr.wrap("boom", boom)
    with pytest.raises(KeyError):
        f()
    outer = tr.wrap("outer", lambda: None)
    outer()
    s = tr.snapshot()
    assert s["boom"]["calls"] == 1
    assert s["outer"]["self_s"] == 1.0  # the failed span left no frame behind


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def work(x):\n    return x + 1\n\ndef calls_work(x):\n    return work(x) * 2\n\nclass Box:\n    def get(self):\n        return 3\n", a.__dict__)
    a.work.__module__ = a.calls_work.__module__ = "fakepkg.a"
    b.work = a.work  # as `from .a import work` would bind it
    b.renamed = a.work
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for k in mods:
        sys.modules.pop(k, None)


def test_wrap_package_reaches_every_binding(fake_package):
    a, b = fake_package
    assert sorted(public_functions(a)) == ["calls_work"] + ["work"]
    tr = Tracer()
    bound = wrap_package(tr, "fakepkg", {"a.work": "a.work", "a.calls_work": "a.calls_work"}, {("a.Box", "get"): "a.Box.get"})
    assert sorted(bound) == sorted(["fakepkg.a.work", "fakepkg.a.calls_work", "fakepkg.b.work", "fakepkg.b.renamed", "fakepkg.a.Box.get"])
    assert b.work(1) == 2 and b.renamed(1) == 2 and a.calls_work(1) == 4 and a.Box().get() == 3
    s = tr.snapshot()
    assert s["a.work"]["calls"] == 3  # two through b's names, one inside calls_work
    assert s["a.calls_work"]["calls"] == 1 and s["a.Box.get"]["calls"] == 1
    with pytest.raises(RuntimeError, match="already wrapped"):
        wrap_package(tr, "fakepkg", {"a.work": "a.work"}, {})


def test_check_counts_names_every_mismatch_and_missing_span():
    spans = {"x.f": {"calls": 3}, "x.g": {"calls": 2}}
    assert check_counts({"x.f": 3, "x.g": 2}, spans) == []
    miss = check_counts({"x.f": 4, "x.h": 1}, spans)
    assert miss == ["x.f: expected 4 calls, traced 3", "x.h: expected 1 calls, traced 0"]
