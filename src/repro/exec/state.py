"""Pluggable keyed state for exec operators.

Every stateful :class:`~repro.exec.Operator` keeps its keyed state
behind the :class:`StateBackend` surface, so the same operator runs
unchanged on a heap dict (Flink's 'hashmap' backend) or on the embedded
LSM store of :mod:`repro.runtime.kvstore` (the RocksDB stand-in of paper
Figure 5).  ``snapshot``/``restore`` give checkpointing a uniform way to
capture and reload a backend regardless of implementation.
"""

from __future__ import annotations

from typing import Any, Iterable


class StateBackend:
    """Keyed state: the minimal get/put/delete/items surface."""

    def get(self, key: Any, default: Any = None) -> Any:
        raise NotImplementedError

    def put(self, key: Any, value: Any) -> None:
        raise NotImplementedError

    def delete(self, key: Any) -> None:
        raise NotImplementedError

    def items(self) -> Iterable[tuple[Any, Any]]:
        raise NotImplementedError

    # -- bulk restore ---------------------------------------------------------

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        """Store many (key, value) pairs in one call.

        The default loops ``put``; backends with a cheaper bulk path
        (dict.update) override it.  Semantically identical to the loop —
        later pairs win on duplicate keys.
        """
        put = self.put
        for key, value in items:
            put(key, value)

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> Any:
        """A self-contained copy of the backend's contents."""
        return list(self.items())

    def restore(self, state: Any) -> None:
        """Load a :meth:`snapshot` back (into an empty backend)."""
        for key, value in state:
            self.put(key, value)

    # -- introspection (pull-based; never on the element hot path) ------------

    def estimated_entries(self) -> int:
        """How many keyed entries the backend currently holds."""
        return sum(1 for _ in self.items())

    def estimated_bytes(self, sample: int = 32) -> int:
        """A cheap serialized-size estimate.

        Measures the repr length of up to ``sample`` entries and scales to
        the entry count — good enough for EXPLAIN ANALYZE's "where is the
        memory" question without serializing whole windows.
        """
        entries = self.estimated_entries()
        if entries == 0:
            return 0
        sampled = []
        for item in self.items():
            sampled.append(len(repr(item)))
            if len(sampled) >= sample:
                break
        if not sampled:
            return 0
        return int(sum(sampled) / len(sampled) * entries)


class DictStateBackend(StateBackend):
    """Heap state backend (Flink's 'hashmap' backend)."""

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}

    def get(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: Any) -> None:
        self._data.pop(key, None)

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        self._data.update(items)

    def items(self) -> Iterable[tuple[Any, Any]]:
        return list(self._data.items())

    def estimated_entries(self) -> int:
        return len(self._data)


class LSMStateBackend(StateBackend):
    """Embedded LSM state backend (the RocksDB stand-in).

    Keys must be orderable; window state keys are (key, start, end) tuples,
    so heterogeneous user keys should be strings or ints.
    """

    def __init__(self, memtable_limit: int = 256) -> None:
        # Imported lazily: repro.runtime.dag imports repro.exec, so a
        # module-level import here would close an import cycle.
        from repro.runtime.kvstore import LSMStore
        self.store = LSMStore(memtable_limit=memtable_limit)

    def get(self, key: Any, default: Any = None) -> Any:
        return self.store.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self.store.put(key, value)

    def delete(self, key: Any) -> None:
        self.store.delete(key)

    def items(self) -> Iterable[tuple[Any, Any]]:
        return list(self.store.items())
