"""Property-based tests: both hash-table backends behave exactly like a
dict under arbitrary operation sequences, and the store's batched get
accounting equals sequential gets on either backend."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kvstore.chained import ChainedHashTable
from repro.kvstore.hashtable import HashTable
from repro.kvstore.store import BACKENDS as STORE_BACKENDS, KVStore

keys = st.binary(min_size=1, max_size=12)
values = st.binary(max_size=16)

BACKENDS = [HashTable, ChainedHashTable]


def ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), keys, values),
            st.tuples(st.just("delete"), keys, st.just(b"")),
            st.tuples(st.just("get"), keys, st.just(b"")),
        ),
        max_size=200,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(op_list=ops())
def test_matches_dict_semantics(backend, op_list):
    table = backend(initial_capacity=8)
    model = {}
    for kind, key, value in op_list:
        if kind == "put":
            assert table.put(key, value) == (key not in model)
            model[key] = value
        elif kind == "delete":
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert table.get(key) == model.get(key)
    assert len(table) == len(model)
    assert dict(table.items()) == model


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=75, deadline=None)
@given(key_set=st.sets(keys, max_size=100))
def test_all_inserted_keys_retrievable(backend, key_set):
    table = backend(initial_capacity=8)
    for i, key in enumerate(sorted(key_set)):
        table.put(key, str(i).encode())
    for i, key in enumerate(sorted(key_set)):
        assert table.get(key) == str(i).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(keys, max_size=100))
def test_load_factor_invariant(key_list):
    table = HashTable(initial_capacity=8, max_load=0.7)
    for key in key_list:
        table.put(key, b"v")
        assert table.load_factor <= 0.7 + 1e-9


# -- batched get accounting over memoized costs ---------------------------------------

STORE_KEYS = [b"k%d" % n for n in range(9)]
store_key = st.sampled_from(STORE_KEYS)


def store_ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), store_key, values),
            st.tuples(st.just("delete"), store_key, st.just(b"")),
            # A burst of fresh keys: every shard grows past its load limit.
            st.tuples(st.just("grow"), st.integers(0, 10**6), st.just(b"")),
            st.tuples(st.just("gets"), st.lists(store_key, max_size=20),
                      st.just(b"")),
        ),
        max_size=40,
    )


def get_totals(store):
    return (store.gets, list(store.core_ops),
            [(s.total_probes, s.total_lookups) for s in store._shards])


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
@settings(max_examples=100, deadline=None)
@given(op_list=store_ops())
def test_note_gets_over_memoized_costs_equals_sequential_gets(backend,
                                                              op_list):
    """``note_gets`` over ``get_cost`` results memoized until the store
    version moves equals N ``get()`` calls, shard by shard, across
    overwrites, new-key puts, deletes and resizes."""
    scalar = KVStore(num_cores=2, backend=backend)
    batch = KVStore(num_cores=2, backend=backend)
    memo, seen = {}, batch.version
    for kind, arg, value in op_list:
        if kind == "gets":
            # Every key, so each op checks every memo entry, plus repeats.
            arg = STORE_KEYS + arg
            for key in arg:
                scalar.get(key)
            if batch.version != seen:
                memo.clear()
                seen = batch.version
            for key in arg:
                if key not in memo:
                    memo[key] = batch.get_cost(key)
            cores, probes = zip(*(memo[key] for key in arg))
            batch.note_gets(np.array(cores, dtype=np.uint8),
                            np.array(probes, dtype=np.int32))
        elif kind == "grow":
            for twin in (scalar, batch):
                for i in range(300):
                    twin.put(b"g%d-%d" % (arg, i), b"v")
        else:
            for twin in (scalar, batch):
                if kind == "put":
                    twin.put(arg, value)
                else:
                    twin.delete(arg)
        assert get_totals(batch) == get_totals(scalar)
