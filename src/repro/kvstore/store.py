"""The in-memory key-value store a storage server runs.

Wraps the from-scratch :class:`~repro.kvstore.hashtable.HashTable` with the
Get/Put/Delete interface, value-size enforcement, per-core sharding (the
paper's servers use Receive Side Scaling / Flow Director to shard keys over
16 cores, §1/§6), and simple operation statistics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constants import MAX_VALUE_SIZE
from repro.errors import ConfigurationError, ValueFormatError
from repro.kvstore.chained import ChainedHashTable
from repro.kvstore.hashtable import HashTable
from repro.sketch.hashing import hash_bytes

_CORE_SEED = 0xC04E

#: Selectable hash-table backends: open addressing (default) or the
#: TommyDS-style chained table the paper's servers use (§6).
BACKENDS = {
    "open": HashTable,
    "chained": ChainedHashTable,
}


class KVStore:
    """A sharded in-memory store.

    Parameters
    ----------
    num_cores:
        Number of per-core shards.  Keys are hashed over cores the way RSS
        spreads flows; per-core counters expose intra-server imbalance, which
        the paper notes amplifies the skew problem (§1).
    max_value_size:
        Upper bound on value length (storage servers can hold values larger
        than the switch cache; default allows 8x the switch maximum).
    backend:
        ``"open"`` (open addressing) or ``"chained"`` (TommyDS-style).
    """

    def __init__(self, num_cores: int = 16,
                 max_value_size: int = 8 * MAX_VALUE_SIZE,
                 backend: str = "open"):
        if num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        table_cls = BACKENDS.get(backend)
        if table_cls is None:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
            )
        self.num_cores = num_cores
        self.max_value_size = max_value_size
        self.backend = backend
        self._shards = [
            table_cls(seed=_CORE_SEED + i) for i in range(num_cores)
        ]
        self.core_ops: List[int] = [0] * num_cores
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        #: bumped whenever slot layout can change (a new-key put, a
        #: delete, a resize), so callers can memoize :meth:`get_cost`.
        self.version = 0

    def _core_of(self, key: bytes) -> int:
        return hash_bytes(key, _CORE_SEED) % self.num_cores

    def _shard(self, key: bytes) -> HashTable:
        core = self._core_of(key)
        self.core_ops[core] += 1
        return self._shards[core]

    # -- API -------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for *key*, or None if absent."""
        self.gets += 1
        return self._shard(key).get(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite *key*."""
        if len(value) > self.max_value_size:
            raise ValueFormatError(
                f"value of {len(value)} bytes exceeds store limit "
                f"{self.max_value_size}"
            )
        self.puts += 1
        shard = self._shard(key)
        resizes = shard.resizes
        if shard.put(key, value) or shard.resizes != resizes:
            self.version += 1

    def delete(self, key: bytes) -> bool:
        """Remove *key*; returns True if it existed."""
        self.deletes += 1
        if not self._shard(key).delete(key):
            return False
        self.version += 1
        return True

    def get_cost(self, key: bytes) -> Tuple[int, int]:
        """``(core, probes)`` that :meth:`get` of *key* would account,
        without accounting them.  Valid until :attr:`version` moves."""
        core = self._core_of(key)
        return core, self._shards[core].probe_cost(key)

    def note_gets(self, cores, probes) -> None:
        """Account one :meth:`get` per entry of *cores* and *probes* (as
        :meth:`get_cost` returned them): the same ``gets``, ``core_ops``
        and per-shard probe and lookup totals as N sequential gets."""
        n = len(cores)
        if not n:
            return
        self.gets += n
        lookups = np.bincount(cores, minlength=self.num_cores)
        probe_sums = np.bincount(cores, weights=probes,
                                 minlength=self.num_cores)
        for core in np.flatnonzero(lookups).tolist():
            shard = self._shards[core]
            self.core_ops[core] += int(lookups[core])
            shard.total_lookups += int(lookups[core])
            shard.total_probes += int(probe_sums[core])

    def contains(self, key: bytes) -> bool:
        return self._shards[self._core_of(key)].contains(key)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: bytes) -> bool:
        return self.contains(key)

    # -- diagnostics -------------------------------------------------------------

    @property
    def total_probes(self) -> int:
        """Slot (or chain-node) probes over every shard's lookups."""
        return sum(shard.total_probes for shard in self._shards)

    @property
    def total_lookups(self) -> int:
        """Lookups counted by every shard (gets, puts, deletes, contains)."""
        return sum(shard.total_lookups for shard in self._shards)

    def core_imbalance(self) -> float:
        """max/mean ratio of per-core operation counts (1.0 = perfectly even)."""
        total = sum(self.core_ops)
        if total == 0:
            return 1.0
        mean = total / self.num_cores
        return max(self.core_ops) / mean

    def stats(self) -> Dict[str, float]:
        return {
            "items": float(len(self)),
            "gets": float(self.gets),
            "puts": float(self.puts),
            "deletes": float(self.deletes),
            "core_imbalance": self.core_imbalance(),
        }
