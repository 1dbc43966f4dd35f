"""Property tests for the streaming histogram and its batch twins (Hypothesis).

The headline property: on random inputs, the histogram's quantile
estimates stay within bucket-width error of :func:`statistics.quantiles`.
The estimator returns the upper edge of the bucket holding the order
statistic at rank ``ceil(q*n)`` (clamped to [min, max]), so it is within
one bucket width of that order statistic; ``statistics.quantiles`` with
``method="inclusive"`` interpolates between the two order statistics
bracketing ``q``, so the total allowed error is one bucket width plus the
gap between those bracketing order statistics.
"""

import json
import math
import statistics

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.export import registry_from_jsonl, registry_to_jsonl
from repro.obs.metrics import Histogram, exponential_edges, linear_edges
from repro.obs.registry import Registry
from repro.obs.span import Tracer

#: fixed-width buckets covering the sampled domain with width 1.
WIDTH = 1.0
EDGES = linear_edges(0.0, 1000.0, WIDTH)

values = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=300)

quantile_points = st.floats(min_value=0.01, max_value=0.999)


def _bucket_width_at(hist: Histogram, v: float) -> float:
    lower, upper = hist.bucket_bounds(v)
    if math.isinf(lower) or math.isinf(upper):
        return WIDTH
    return upper - lower


@given(data=values, q=quantile_points)
@example(data=[0.0] * 5 + [100.5] * 2 + [101.0] * 9, q=1 / 3)
@settings(max_examples=200)
def test_quantile_within_bucket_width_of_statistics(data, q):
    # statistics.quantiles(n=1000) yields the grid quantiles i/1000, so
    # the histogram, the exact value and its bracket are all taken at the
    # grid point nearest q.
    i = max(1, min(999, round(q * 1000)))
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    est = hist.quantile(i / 1000)

    srt = sorted(data)
    n = len(srt)
    # statistics.quantiles(method="inclusive") interpolates between the
    # order statistics bracketing position i*(n-1)/1000.
    exact = statistics.quantiles(srt, n=1000, method="inclusive")[i - 1]
    j = i * (n - 1) // 1000
    bracket_gap = srt[min(j + 1, n - 1)] - srt[j]
    tolerance = _bucket_width_at(hist, exact) + bracket_gap + 1e-9
    assert abs(est - exact) <= tolerance


@given(data=values, q=quantile_points)
@settings(max_examples=200)
def test_quantile_within_one_bucket_of_order_statistic(data, q):
    """The core guarantee, stated against the exact empirical quantile."""
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    rank = max(1, math.ceil(q * len(data)))
    order_stat = sorted(data)[rank - 1]
    est = hist.quantile(q)
    assert abs(est - order_stat) <= _bucket_width_at(hist, order_stat) + 1e-9


@given(data=values)
@settings(max_examples=100)
def test_histogram_accounting_invariants(data):
    hist = Histogram("h", edges=EDGES)
    for v in data:
        hist.observe(v)
    assert hist.count == len(data)
    assert sum(hist.counts) == len(data)
    assert hist.min == min(data)
    assert hist.max == max(data)
    assert hist.sum == sum(data)  # same float addition order
    # Estimates never leave the observed range.
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert hist.min <= hist.quantile(q) <= hist.max


@given(data=values, qa=quantile_points, qb=quantile_points)
@settings(max_examples=100)
def test_quantiles_monotone(data, qa, qb):
    hist = Histogram("h", edges=exponential_edges(1e-3, 2000.0))
    for v in data:
        hist.observe(v)
    lo, hi = sorted((qa, qb))
    assert hist.quantile(lo) <= hist.quantile(hi)


@given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
                     min_size=0, max_size=100),
       count=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_jsonl_export_round_trips_random_registries(data, count):
    registry = Registry()
    registry.counter("c").inc(count)
    registry.gauge("g").set(count / 3.0)
    hist = registry.histogram("h", edges=linear_edges(-1e6, 1e6, 1e5))
    for v in data:
        hist.observe(v)
    text = registry_to_jsonl(registry)
    rebuilt = registry_from_jsonl(text)
    assert registry_to_jsonl(rebuilt) == text
    assert rebuilt.collect() == registry.collect()
    # And the text really is line-delimited JSON.
    for line in text.strip().splitlines():
        json.loads(line)


# -- batch emission twins ------------------------------------------------------
#
# The lanes engine emits metrics in batch; these twins hold the batch
# primitives to the per-value calls they stand for, bit for bit.

#: few edges, so values land on edges, below the first and in the overflow.
TWIN_EDGES = [-1.0, 0.0, 0.5, 2.0]

twin_values = st.one_of(
    st.sampled_from(TWIN_EDGES + [0.0, -0.0, -5.0, 1e9, 3.0]),
    st.floats(min_value=-10.0, max_value=10.0,
              allow_nan=False, allow_infinity=False))


def _bits(hist: Histogram) -> str:
    """The full snapshot as text: keeps float bits (and the sign of zero)
    that ``==`` would blur."""
    return json.dumps(hist.snapshot(), sort_keys=True)


@given(before=st.lists(twin_values, max_size=20),
       batches=st.lists(st.lists(twin_values, max_size=100), max_size=4),
       default_edges=st.booleans())
@example(before=[], batches=[[]], default_edges=False)
@example(before=[0.0], batches=[[-0.0, 0.0] * 20], default_edges=False)
@example(before=[], batches=[[-0.0, 0.0] * 20, [0.0, -0.0] * 20],
         default_edges=False)
@example(before=[-0.0], batches=[[0.0] * 40], default_edges=False)
@example(before=[], batches=[[0.1, 0.2, 0.3, 1e9, 2.0, -1.0] * 20],
         default_edges=True)
@settings(max_examples=300)
def test_observe_batch_equals_observe_loop(before, batches, default_edges):
    edges = None if default_edges else TWIN_EDGES
    loop, batch = Histogram("h", edges=edges), Histogram("h", edges=edges)
    for v in before:
        loop.observe(v)
        batch.observe(v)
    for values in batches:
        for v in values:
            loop.observe(v)
        batch.observe_batch(values)
        assert _bits(batch) == _bits(loop)


def _frozen_tracer() -> Tracer:
    return Tracer(clock=lambda: 7.25, registry=Registry())


def _tracer_bits(tracer: Tracer):
    stats = {name: (s.count, s.errors, s.total, s.exclusive,
                    s.wall_total, s.wall_exclusive)
             for name, s in tracer._stats.items()}
    return json.dumps(stats, sort_keys=True), \
        registry_to_jsonl(tracer.registry)


@given(counts=st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                 st.integers(min_value=0, max_value=80)),
                       max_size=6),
       parent=st.booleans())
@settings(max_examples=150)
def test_zero_spans_equal_frozen_clock_span_pairs(counts, parent):
    pairs, batch = _frozen_tracer(), _frozen_tracer()
    outer = [t.span("outer").__enter__() for t in (pairs, batch)] \
        if parent else []
    for name, n in counts:
        for _ in range(n):
            with pairs.span(name):
                pass
        batch.zero_spans(name, n)
    if parent:
        assert outer[0].child_time == outer[1].child_time
        assert outer[0].wall_child_time == outer[1].wall_child_time
        for span in outer:
            span.__exit__(None, None, None)
    assert _tracer_bits(batch) == _tracer_bits(pairs)
