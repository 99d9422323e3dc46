"""Span arithmetic of the traced pass, on a synthetic call tree driven by a
scripted clock.

    python3 -m pytest bench/test_spans.py
"""

import types

import pytest

from spans import CHECK_SPAN, Tracer, self_times, summarize, top_level_time


class Clock:
    """Returns 0, 1, 2, ... on successive reads."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def nested_module(tracer):
    """outer() calls inner() twice; inner() calls leaf() once."""
    mod = types.SimpleNamespace()
    mod.leaf = lambda: "leaf"
    mod.inner = lambda: mod.leaf()
    mod.outer = lambda: [mod.inner(), mod.inner()]
    for name in ("leaf", "inner", "outer"):
        assert tracer.wrap(mod, name, f"m.{name}")
    return mod


def test_nested_spans_have_exact_parents_and_self_times():
    tracer = Tracer(clock=Clock())
    mod = nested_module(tracer)
    assert mod.outer() == ["leaf", "leaf"]
    # reads: outer 0, inner 1, leaf 2-3, inner end 4, inner 5, leaf 6-7,
    # inner end 8, outer end 9
    assert tracer.spans == [
        ["m.outer", 0.0, 9.0, -1],
        ["m.inner", 1.0, 4.0, 0],
        ["m.leaf", 2.0, 3.0, 1],
        ["m.inner", 5.0, 8.0, 0],
        ["m.leaf", 6.0, 7.0, 3],
    ]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 2.0, 1.0]
    table = summarize(tracer.spans)
    assert table["m.outer"] == {"count": 1, "total": 9.0, "self": 3.0}
    assert table["m.inner"] == {"count": 2, "total": 6.0, "self": 4.0}
    assert table["m.leaf"] == {"count": 2, "total": 2.0, "self": 2.0}
    assert sum(r["self"] for r in table.values()) == top_level_time(
        tracer.spans) == 9.0
    assert not tracer.interleaved


def test_missing_callable_is_reported_absent():
    tracer = Tracer(clock=Clock())
    mod = types.SimpleNamespace(present=lambda: 1, not_callable=3)
    assert not tracer.wrap(mod, "gone", "m.gone")
    assert not tracer.wrap(mod, "not_callable", "m.not_callable")
    assert tracer.wrap(mod, "present", "m.present")
    assert tracer.absent == ["m.gone", "m.not_callable"]
    assert not hasattr(mod, "gone")
    assert mod.present() == 1


def test_checks_are_their_own_spans_and_untraced_inside():
    tracer = Tracer(clock=Clock())
    mod = nested_module(tracer)
    seen = []

    def after(args, kwargs, result, ctx):
        seen.append((result, ctx))
        mod.leaf()           # a wrapped call made by a check is not traced

    tracer.wrap(mod, "outer", "m.top", before=lambda a, k: "ctx",
                after=after)
    mod.outer()
    names = [s[0] for s in tracer.spans]
    assert names.count(CHECK_SPAN) == 2
    assert names.count("m.leaf") == 2
    assert seen == [(["leaf", "leaf"], "ctx")]
    assert all(s[3] == -1 for s in tracer.spans if s[0] == CHECK_SPAN)


def test_failed_calls_are_counted_and_reraised():
    tracer = Tracer(clock=Clock())

    def boom():
        raise ValueError("no")

    mod = types.SimpleNamespace(boom=boom)
    tracer.wrap(mod, "boom", "m.boom")
    for _ in range(2):
        with pytest.raises(ValueError):
            mod.boom()
    assert tracer.failed == {"m.boom": 2}
    assert [s[2] for s in tracer.spans] == [1.0, 3.0]


def test_out_of_order_end_marks_interleaving():
    tracer = Tracer(clock=Clock())
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(a)
    tracer.end(b)
    assert tracer.interleaved
