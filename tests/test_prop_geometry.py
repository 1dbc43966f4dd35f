"""Property: every layout's vectorized batch probe IS the scalar lookup.

For each shipped :class:`~repro.core.geometry.CacheLayout`, drive two
identically-constructed twins with the same random operation stream —
installs, evicts, defragmentation, write invalidations, sequenced cache
updates — and, at random points, classify a key batch.  One twin answers through the
vectorized :meth:`classify_reads` kernel, the other through N sequential
scalar ``lookup_hit`` / ``read_value`` calls.  The hit mask, the hit
indexes (way / segment-pool choice) in hit-stream order, the per-hit
recirculation delays, and every counter the differential harness gates
(``snapshot_fields`` plus the raw register read/write totals, compared
after every operation) must match exactly.  This is the per-layout license behind
``CacheLayout.fastpath_eligible = True``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.geometry import (
    RECIRCULATION_DELAY,
    OrbitLayout,
    PaperLayout,
    SetAssocLayout,
)

#: keys per layout.  The paper twin gets a small space, so installs,
#: evictions and defragmentation keep hitting keys whose probes it has
#: memoized.  The set-associative and orbit twins get more keys than
#: their 8 entries, so every way of a set fills and orbit runs out of
#: key indexes.
NUM_KEYS = {"paper": 6, "setassoc": 13, "orbit": 13}


def make_twin(name):
    """One freshly-built layout instance of the named geometry."""
    if name == "paper":
        # Two egress pipes and narrow value arrays: hits spread over
        # pipes, bitmaps differ in width and position, and evictions
        # fragment the value memory that defragment_pipe repacks.
        return PaperLayout(num_pipes=2, ports_per_pipe=2, entries=16,
                           num_value_stages=4, value_slots=4, slot_bytes=8)
    if name == "setassoc":
        return SetAssocLayout(num_pipes=1, entries=8, ways=2,
                              num_value_stages=2, value_slots=8,
                              slot_bytes=16)
    return OrbitLayout(num_pipes=1, entries=8, num_value_stages=2,
                       value_slots=8, slot_bytes=16, max_passes=4)


def key_of(num):
    return b"key%d" % num


def value_of(num, size):
    return bytes([num % 251]) * size


def scalar_classify(layout, keys, read_values):
    """N sequential scalar lookups, shaped like ``classify_reads``."""
    hit_mask, hit_indexes, delays = [], [], []
    miss_keys, miss_pos = [], []
    for j, key in enumerate(keys):
        hit = layout.lookup_hit(key)
        if hit is None:
            hit_mask.append(False)
            miss_keys.append(key)
            miss_pos.append(j)
            continue
        hit_mask.append(True)
        hit_indexes.append(hit.key_index)
        delays.append(hit.extra_passes * RECIRCULATION_DELAY)
        if read_values:
            layout.read_value(hit)
    return hit_mask, hit_indexes, miss_keys, miss_pos, delays


def register_totals(layout):
    """(reads, writes) over every register array the layout declares; for
    the paper layout, every per-pipe status and value array and the
    lookup table's hit/miss split."""
    arrays = []
    if hasattr(layout, "valid"):
        arrays.append(layout.valid)
    for attr in ("value", "segments"):
        if hasattr(layout, attr):
            arrays.append(getattr(layout, attr))
    totals = {}
    if isinstance(layout, PaperLayout):
        for status, values in zip(layout.status, layout.values):
            arrays += [status.valid, status.version] + values.arrays
        table = layout.lookup.table
        totals["lookup"] = (table.hits, table.misses)
    totals.update((a.name, (a.reads, a.writes)) for a in arrays)
    return totals


def operations(num_keys):
    key = st.integers(0, num_keys - 1)
    install = st.tuples(st.just("install"), key,
                        st.tuples(st.integers(1, 64), st.integers(0, 3)))
    evict = st.tuples(st.just("evict"), key, st.just(0))
    defragment = st.tuples(st.just("defragment"), st.integers(0, 1),
                           st.just(0))
    write = st.tuples(st.just("write"), key, st.just(0))
    update = st.tuples(st.just("update"), key, st.integers(1, 64))
    probe = st.tuples(st.just("probe"), st.lists(key, max_size=12),
                      st.booleans())
    return st.lists(st.one_of(install, evict, defragment, write, update,
                              probe),
                    min_size=10, max_size=40)


def check_twins(name, ops):
    """Drive a batch twin and a scalar twin of layout *name* through
    *ops*; every probe and every counter must agree."""
    batch = make_twin(name)
    scalar = make_twin(name)
    seq = 0
    for kind, arg, extra in ops:
        if kind == "probe":
            # Every key, so each probe fills (or checks) every memo entry.
            keys = [key_of(n) for n in list(range(NUM_KEYS[name])) + arg]
            read_values = extra
            got = batch.classify_reads(keys, read_values)
            hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = got
            want = scalar_classify(scalar, keys, read_values)
            assert list(hit_mask) == want[0]
            assert list(hit_indexes) == want[1]
            assert list(miss_keys) == want[2]
            assert list(miss_pos) == want[3]
            if hit_delays is None:
                assert all(d == 0.0 for d in want[4])
            else:
                assert hit_delays.dtype == np.float64
                assert list(hit_delays) == want[4]
        elif kind == "defragment":
            assert batch.defragment_pipe(arg) == scalar.defragment_pipe(arg)
        elif kind == "install":
            key = key_of(arg)
            size, port = extra
            # The controller never reinstalls a cached key, and the paper
            # layout raises on a reinstall into another pipe; every other
            # reinstall is rejected, identically on both twins.
            if (isinstance(scalar, PaperLayout) and scalar.is_cached(key)
                    and key not in scalar.memory[scalar.pipe_of_port(port)]):
                continue
            value = value_of(arg, 1 + (size - 1) % batch.max_value_size)
            assert (batch.install(key, value, egress_port=port)
                    == scalar.install(key, value, egress_port=port))
        elif kind == "evict":
            assert batch.evict(key_of(arg)) == scalar.evict(key_of(arg))
        elif kind == "write":
            assert (batch.handle_write(key_of(arg))
                    == scalar.handle_write(key_of(arg)))
        else:  # update
            seq += 1
            value = value_of(arg, 1 + (extra - 1) % batch.max_value_size)
            assert (batch.apply_update(key_of(arg), value, seq)
                    == scalar.apply_update(key_of(arg), value, seq))
        assert register_totals(batch) == register_totals(scalar)
    assert batch.snapshot_fields() == scalar.snapshot_fields()
    assert batch.cache_size() == scalar.cache_size()
    assert sorted(batch.cached_keys()) == sorted(scalar.cached_keys())


@pytest.mark.parametrize("name", ["paper", "setassoc", "orbit"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_probe_equals_sequential_scalar_lookups(name, data):
    check_twins(name, data.draw(operations(NUM_KEYS[name])))


@pytest.mark.parametrize("name", ["setassoc", "orbit"])
def test_probe_of_a_full_layout(name):
    # 13 one-byte installs into 8 entries: sets fill, later installs are
    # rejected, and probes run against the full tag state before and
    # after an eviction frees room.
    fill = [("install", n, (1, 0)) for n in range(NUM_KEYS[name])]
    check_twins(name, fill + [("probe", [], True), ("evict", 0, 0),
                              ("probe", [0, 12], False)] + fill
                + [("probe", [], True)])


def test_paper_probe_after_defragment_moves_a_memoized_key():
    # Defragmentation moves key 1 to the bits key 0 freed, after its
    # probe was memoized.
    check_twins("paper", [("install", 0, (1, 0)), ("install", 1, (1, 0)),
                          ("evict", 0, 0), ("probe", [], True),
                          ("defragment", 0, 0), ("probe", [], True)])


@pytest.mark.parametrize("name", ["setassoc", "orbit"])
def test_probe_of_empty_batch_is_a_noop(name):
    layout = make_twin(name)
    before = register_totals(layout)
    hit_mask, hit_indexes, miss_keys, miss_pos, hit_delays = \
        layout.classify_reads([], read_values=True)
    assert len(hit_mask) == 0
    assert hit_indexes == [] and miss_keys == [] and miss_pos == []
    if hit_delays is not None:
        assert len(hit_delays) == 0
    assert register_totals(layout) == before
