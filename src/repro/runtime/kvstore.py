"""An embedded log-structured (LSM) key-value store — the RocksDB stand-in.

Figure 5 shows stateful operators persisting intermediate results in an
embedded key-value store.  This module substitutes RocksDB with a faithful
laptop-scale LSM tree: writes go to a write-ahead log and a sorted
**memtable**; when the memtable exceeds its budget it is flushed to an
immutable **sorted run** (SSTable); reads consult memtable then runs newest
first; deletes write **tombstones**; background **compaction** merges runs
to bound read amplification.  Its get/put/delete/items surface is the keyed
state of :mod:`repro.dsl`'s operators; :class:`DictStore`, a dict with the
same write methods, is the heap alternative the Figure 5 benchmark compares
it with.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.core.errors import StateError


class _Tombstone:
    """Marker for deleted keys (distinct from any user value)."""

    def __repr__(self) -> str:
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class DictStore(dict):
    """The heap state backend (Flink's 'hashmap'): a dict with the
    :class:`LSMStore` write surface, so keyed operators run unchanged on
    either."""

    def put(self, key: Any, value: Any) -> None:
        self[key] = value

    def delete(self, key: Any) -> None:
        self.pop(key, None)


class MemTable:
    """The mutable in-memory write buffer: a sorted key → value map."""

    def __init__(self) -> None:
        self._keys: list[Any] = []
        self._values: dict[Any, Any] = {}

    def put(self, key: Any, value: Any) -> None:
        if key not in self._values:
            bisect.insort(self._keys, key)
        self._values[key] = value

    def get(self, key: Any) -> Any:
        """The stored value, TOMBSTONE, or None when absent."""
        return self._values.get(key)

    def __contains__(self, key: Any) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Sorted (key, value) pairs, tombstones included."""
        for key in self._keys:
            yield key, self._values[key]

    def scan(self, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        lo = bisect.bisect_left(self._keys, low)
        hi = bisect.bisect_left(self._keys, high)
        for key in self._keys[lo:hi]:
            yield key, self._values[key]


class SortedRun:
    """An immutable sorted run (the SSTable of a real LSM tree)."""

    def __init__(self, items: list[tuple[Any, Any]]) -> None:
        self._keys = [k for k, _ in items]
        self._vals = [v for _, v in items]
        if self._keys != sorted(self._keys):
            raise StateError("sorted run keys must be sorted")

    def get(self, key: Any) -> Any:
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._vals[index]
        return None

    def __contains__(self, key: Any) -> bool:
        index = bisect.bisect_left(self._keys, key)
        return index < len(self._keys) and self._keys[index] == key

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(zip(self._keys, self._vals))

    def scan(self, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        lo = bisect.bisect_left(self._keys, low)
        hi = bisect.bisect_left(self._keys, high)
        return iter(zip(self._keys[lo:hi], self._vals[lo:hi]))


class WriteAheadLog:
    """An append-only operation log enabling crash recovery.

    In-memory by design (the substitution note in DESIGN.md): what matters
    for the reproduction is the *protocol* — every mutation is logged
    before it is applied, and :meth:`replay` rebuilds the store state.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, Any, Any]] = []

    def log_put(self, key: Any, value: Any) -> None:
        self._entries.append(("put", key, value))

    def log_delete(self, key: Any) -> None:
        self._entries.append(("del", key, None))

    def truncate(self) -> None:
        """Drop entries covered by a flushed run."""
        self._entries.clear()

    def replay(self) -> Iterator[tuple[str, Any, Any]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class LSMStore:
    """The log-structured store: RocksDB's interface at laptop scale.

    Metrics (`flushes`, `compactions`, `reads`, `run_probes`) make write
    and read amplification observable for the Figure 5 benchmark.
    """

    def __init__(self, memtable_limit: int = 1024,
                 max_runs: int = 4) -> None:
        if memtable_limit <= 0 or max_runs <= 0:
            raise StateError("memtable_limit and max_runs must be positive")
        self.memtable_limit = memtable_limit
        self.max_runs = max_runs
        self._memtable = MemTable()
        self._runs: list[SortedRun] = []  # newest first
        self._wal = WriteAheadLog()
        self.flushes = 0
        self.compactions = 0
        self.reads = 0
        self.run_probes = 0

    # -- writes ----------------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        if isinstance(value, _Tombstone):
            raise StateError("cannot store the tombstone marker directly")
        self._wal.log_put(key, value)
        self._memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: Any) -> None:
        self._wal.log_delete(key)
        self._memtable.put(key, TOMBSTONE)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new sorted run; truncate the WAL."""
        if not len(self._memtable):
            return
        self._runs.insert(0, SortedRun(list(self._memtable.items())))
        self._memtable = MemTable()
        self._wal.truncate()
        self.flushes += 1
        if len(self._runs) > self.max_runs:
            self.compact()

    def compact(self) -> None:
        """Merge all runs into one, dropping shadowed values and tombstones."""
        merged: dict[Any, Any] = {}
        for run in reversed(self._runs):  # oldest first; newer overwrite
            for key, value in run.items():
                merged[key] = value
        survivors = sorted(
            (k, v) for k, v in merged.items()
            if not isinstance(v, _Tombstone))
        self._runs = [SortedRun(survivors)] if survivors else []
        self.compactions += 1

    # -- reads -----------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        """Newest-wins lookup: memtable, then runs newest-first."""
        self.reads += 1
        if key in self._memtable:
            value = self._memtable.get(key)
            return default if isinstance(value, _Tombstone) else value
        for run in self._runs:
            self.run_probes += 1
            if key in run:
                value = run.get(key)
                return default if isinstance(value, _Tombstone) else value
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def scan(self, low: Any, high: Any) -> Iterator[tuple[Any, Any]]:
        """Merged range scan over ``[low, high)``, newest value per key."""
        sources = [self._memtable.scan(low, high)] + [
            run.scan(low, high) for run in self._runs]
        chosen: dict[Any, Any] = {}
        for source in sources:  # newest source first; keep first sighting
            for key, value in source:
                if key not in chosen:
                    chosen[key] = value
        for key in sorted(chosen):
            value = chosen[key]
            if not isinstance(value, _Tombstone):
                yield key, value

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All live (key, value) pairs in key order."""
        chosen: dict[Any, Any] = {}
        for source in [self._memtable.items()] + [
                run.items() for run in self._runs]:
            for key, value in source:
                if key not in chosen:
                    chosen[key] = value
        for key in sorted(chosen):
            value = chosen[key]
            if not isinstance(value, _Tombstone):
                yield key, value

    def __len__(self) -> int:
        """Number of live keys (requires a full merge — O(n))."""
        return sum(1 for _ in self.items())

    # -- introspection -----------------------------------------------------------

    @property
    def run_count(self) -> int:
        return len(self._runs)

    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    def recover(self) -> "LSMStore":
        """Simulate crash recovery: rebuild from runs + WAL replay.

        Returns a new store whose live contents equal this one's — the
        property the WAL exists to guarantee.
        """
        fresh = LSMStore(self.memtable_limit, self.max_runs)
        fresh._runs = list(self._runs)
        for op, key, value in self._wal.replay():
            if op == "put":
                fresh._memtable.put(key, value)
            else:
                fresh._memtable.put(key, TOMBSTONE)
        return fresh
