"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
import types

import pytest

import stats
import tracer


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # 9.5 beyond p50: not even the median qualifies
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),  # 9.99 beyond p99
        (1000, 99.0),  # exactly 10 beyond p99
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert stats.highest_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    assert stats.percentile(values, 1) == 1
    assert stats.percentile(list(range(1, 1001)), 99) == 990


def test_median_even_and_odd():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5


# -- fault intervals --------------------------------------------------------


def test_outage_counts_only_invocations_due_after_the_crash():
    invocations = [
        (0.90, 1.05),  # due before the crash: completes early, ignored
        (1.00, 3.20),
        (1.01, 3.10),  # the first completion due at or after the crash
        (1.50, None),  # never completed
    ]
    assert stats.outage_interval(1.0, invocations) == pytest.approx(2.1)


def test_outage_is_none_when_nothing_completes_after_the_crash():
    assert stats.outage_interval(1.0, [(0.5, 0.6), (1.2, None)]) is None


def test_detection_takes_the_first_later_install_without_the_culprit():
    installs = [
        (0.0, (0, 1, 2, 3)),
        (0.5, (0, 2, 3)),  # excludes 1 before the fault: does not count
        (1.2, (0, 1, 2, 3)),  # 1 rejoined
        (2.5, (0, 2, 3)),
        (3.0, (0, 3)),
    ]
    assert stats.detection_interval(1.0, 1, installs) == pytest.approx(1.5)
    assert stats.detection_interval(1.0, 2, installs) == pytest.approx(2.0)
    assert stats.detection_interval(1.0, 3, installs) is None


def test_capacity_window_closes_when_the_backlog_tail_starts():
    # 100 invocations offered from t=0; completions every 10 ms from 0.05
    done = [0.05 + 0.01 * k for k in range(100)]
    start, end, count = stats.capacity_window(0.0, done, 100, warmup=0.1)
    assert start == 0.1
    assert end == pytest.approx(done[89])  # all but 10% completed
    assert count == sum(1 for t in done if 0.1 <= t <= end)
    assert count / (end - start) == pytest.approx(100.0, rel=0.02)


def test_capacity_window_rejects_an_unfinished_phase():
    with pytest.raises(ValueError):
        stats.capacity_window(0.0, [0.5] * 10, 100, warmup=0.1)


def test_latency_trend_separates_steady_from_growing():
    steady = [(0.01 * k, 0.02) for k in range(200)]
    growing = [(0.01 * k, 0.02 + 0.5 * 0.01 * k) for k in range(200)]
    assert stats.latency_trend(steady) == pytest.approx(0.0, abs=1e-12)
    assert stats.latency_trend(growing) == pytest.approx(0.5)


# -- self time --------------------------------------------------------------


@pytest.fixture
def toy_module():
    """A module with two layers of classes for the tracer to wrap."""
    module = types.ModuleType("perfbench_toy_layers")

    class Inner:
        def step(self, pause):
            time.sleep(pause)
            return pause

        @classmethod
        def build(cls):
            return cls()

    class Outer:
        def __init__(self):
            self.inner = Inner.build()
            self.step = self.inner.step  # bound at construction time

        def work(self, own, child):
            time.sleep(own)
            return self.step(child)

    module.Inner = Inner
    module.Outer = Outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _toy_tracer(module):
    return tracer.LayerTracer(
        entry_points={
            "outer": [(module.__name__, "Outer", ("work",))],
            "inner": [(module.__name__, "Inner", ("step", "build"))],
        },
        tracked=((module.__name__, "Outer"),),
    )


def test_self_time_subtracts_wrapped_children(toy_module):
    with _toy_tracer(toy_module) as spans:
        outer = toy_module.Outer()
        spans.reset()
        began = time.perf_counter()
        outer.work(0.03, 0.02)
        elapsed = time.perf_counter() - began
    # the bound method cached in Outer.__init__ went through the wrapper
    assert spans.calls["Inner.step"] == 1
    assert spans.self_s["inner"] == pytest.approx(0.02, abs=0.01)
    assert spans.self_s["outer"] == pytest.approx(0.03, abs=0.01)
    # layer self times sum to the outermost span, which the loop covers
    assert sum(spans.self_s.values()) <= elapsed
    assert sum(spans.self_s.values()) == pytest.approx(spans.spans[0][2])
    reference = tracer.self_times(spans.spans, lambda entry: spans.entries[entry][0])
    for layer, seconds in reference.items():
        assert spans.self_s[layer] == pytest.approx(seconds, abs=1e-9)
    assert spans.instances["Outer"] == [outer]


def test_wrappers_are_removed_on_exit(toy_module):
    originals = {
        name: toy_module.Inner.__dict__[name] for name in ("step", "build")
    }
    init = toy_module.Outer.__dict__["__init__"]
    with _toy_tracer(toy_module):
        assert toy_module.Inner.__dict__["step"] is not originals["step"]
        assert isinstance(toy_module.Inner.__dict__["build"], classmethod)
        assert isinstance(toy_module.Inner.build(), toy_module.Inner)
    for name, original in originals.items():
        assert toy_module.Inner.__dict__[name] is original
    assert toy_module.Outer.__dict__["__init__"] is init


def test_span_cap_counts_drops(toy_module):
    with tracer.LayerTracer(
        entry_points={"inner": [(toy_module.__name__, "Inner", ("step",))]},
        tracked=(),
        span_cap=3,
    ) as spans:
        inner = toy_module.Inner()
        for _ in range(5):
            inner.step(0.0)
    assert len(spans.spans) == 3
    assert spans.spans_dropped == 2
    assert spans.calls["Inner.step"] == 5
