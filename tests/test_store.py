"""Tests for the sharded KV store."""

import pytest

from repro.errors import ConfigurationError, ValueFormatError
from repro.kvstore.store import KVStore


class TestApi:
    def test_get_put_delete(self):
        store = KVStore(num_cores=4)
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.delete(b"k") is True
        assert store.get(b"k") is None

    def test_contains(self):
        store = KVStore()
        store.put(b"k", b"v")
        assert b"k" in store and b"x" not in store

    def test_len_across_shards(self):
        store = KVStore(num_cores=4)
        for i in range(100):
            store.put(f"key{i}".encode(), b"v")
        assert len(store) == 100

    def test_value_size_enforced(self):
        store = KVStore(max_value_size=16)
        with pytest.raises(ValueFormatError):
            store.put(b"k", b"v" * 17)

    def test_op_counters(self):
        store = KVStore()
        store.put(b"k", b"v")
        store.get(b"k")
        store.delete(b"k")
        assert (store.puts, store.gets, store.deletes) == (1, 1, 1)


class TestVersion:
    """The version moves exactly when get costs can change."""

    @pytest.mark.parametrize("backend", ["open", "chained"])
    def test_moves_on_layout_changes_only(self, backend):
        store = KVStore(num_cores=1, backend=backend)
        store.put(b"k", b"v")
        v = store.version
        store.put(b"k", b"w")  # overwrite: same slots
        store.get(b"k")
        assert store.delete(b"absent") is False
        assert store.version == v
        store.put(b"k2", b"v")  # new key
        assert store.version == v + 1
        assert store.delete(b"k2") is True
        assert store.version == v + 2

    def test_resize_on_overwrite_moves_version(self):
        # Open addressing grows before it looks the key up, so the put
        # that follows the one filling the table to its load limit
        # resizes even when it only overwrites.
        store = KVStore(num_cores=1, backend="open")
        shard = store._shards[0]
        limit = int(shard.capacity * 0.7)
        for i in range(limit):
            store.put(b"key%d" % i, b"v")
        v, capacity = store.version, shard.capacity
        store.put(b"key0", b"w")
        assert shard.capacity > capacity
        assert store.version == v + 1

    @pytest.mark.parametrize("backend", ["open", "chained"])
    def test_get_cost_is_side_effect_free(self, backend):
        store = KVStore(num_cores=4, backend=backend)
        for i in range(200):
            store.put(f"key{i}".encode(), b"v")
        before = (store.gets, list(store.core_ops), store.total_probes,
                  store.total_lookups)
        core, probes = store.get_cost(b"key7")
        assert (store.gets, list(store.core_ops), store.total_probes,
                store.total_lookups) == before
        store.get(b"key7")
        assert store.core_ops[core] == before[1][core] + 1
        assert store.total_probes == before[2] + probes


class TestSharding:
    def test_key_sticks_to_one_core(self):
        store = KVStore(num_cores=8)
        core = store._core_of(b"somekey")
        for _ in range(5):
            assert store._core_of(b"somekey") == core

    def test_cores_all_used(self):
        store = KVStore(num_cores=4)
        for i in range(400):
            store.put(f"key{i}".encode(), b"v")
        assert all(ops > 0 for ops in store.core_ops)

    def test_core_imbalance_metric(self):
        store = KVStore(num_cores=4)
        for i in range(1000):
            store.put(f"key{i}".encode(), b"v")
        assert 1.0 <= store.core_imbalance() < 1.5

    def test_skewed_single_key_imbalance(self):
        # Per-core sharding amplifies single-key skew (§1): all hits land
        # on one core.
        store = KVStore(num_cores=4)
        store.put(b"hot", b"v")
        for _ in range(100):
            store.get(b"hot")
        assert store.core_imbalance() > 3.0

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            KVStore(num_cores=0)


class TestStats:
    def test_stats_dict(self):
        store = KVStore()
        store.put(b"k", b"v")
        stats = store.stats()
        assert stats["items"] == 1.0 and stats["puts"] == 1.0
