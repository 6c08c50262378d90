"""Self-time arithmetic of the benchmark's spans, on a fake clock."""

import threading
import types

from spans import Tracer, covered_length


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_union_of_overlapping_intervals():
    assert covered_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered_length([]) == 0.0


def test_nested_wrappers_subtract_children():
    clock = Clock()
    tracer = Tracer(clock=clock)
    ns = types.SimpleNamespace()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        ns.inner()
        clock.now += 3.0
        ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    snap = tracer.take()
    assert (snap.get("outer").calls, snap.get("outer").total_s) == (1, 8.0)
    assert snap.get("outer").self_s == 4.0
    assert (snap.get("inner").calls, snap.get("inner").self_s) == (2, 4.0)
    assert tracer.take().stats == {}
    tracer.uninstall()
    assert (ns.inner, ns.outer) == (inner, outer)


def test_same_name_nesting_counts_outer_calls_apart():
    clock = Clock()
    tracer = Tracer(clock=clock)
    ns = types.SimpleNamespace()

    def base():
        clock.now += 1.0

    def wrapper():
        clock.now += 0.5
        ns.base()

    ns.base, ns.wrapper = base, wrapper
    tracer.wrap(ns, "base", "decide")
    tracer.wrap(ns, "wrapper", "decide")
    ns.wrapper()
    stats = tracer.take().get("decide")
    assert (stats.calls, stats.nested_calls) == (2, 1)
    assert (stats.total_s, stats.self_s) == (2.5, 1.5)


def test_worker_thread_spans_nest_under_the_root():
    clock = Clock()
    tracer = Tracer(clock=clock, keep_durations=("game",))
    ns = types.SimpleNamespace(game=lambda: setattr(clock, "now", clock.now + 2.0))
    tracer.wrap(ns, "game", "game")
    with tracer.root("pass") as root:
        clock.now = 1.0
        worker = threading.Thread(target=ns.game)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.now = 5.0
    snap = tracer.take()
    assert root.wall_s == 5.0
    assert snap.get("pass").self_s == 3.0
    assert snap.get("game").durations == [2.0]
