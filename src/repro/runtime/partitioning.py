"""Stream partitioning strategies between operator subtasks (Figure 5).

Operators in a streaming job exchange records in parallel; the edge between
two operators carries a partitioner deciding which downstream subtask(s)
receive each record:

* **forward** — subtask i to subtask i (requires equal parallelism; the
  precondition for operator chaining/fusion);
* **hash** — by key, so all records of one key meet at one subtask (keyed
  state correctness);
* **broadcast** — every subtask gets every record (small dimension tables,
  control messages, watermarks);
* **rebalance** — round-robin, for load balancing stateless work.

Every keyed placement in the stack — broker topics, hash edges,
fissioned CQL queries and live rescale — goes through
:func:`partition_of`, so they all agree on which partition owns a key.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, Sequence

from repro.core.errors import StateError


def default_hash(key: Hashable) -> int:
    """A stable, deterministic key hash (Python's ``hash`` is salted for
    str; experiments need run-to-run stability).

    Integer keys are mixed through FNV-1a like every other type: a raw
    ``key % partitions`` inherits whatever stride pattern the key space
    has (keys 0, 4, 8, … across 4 partitions all land on partition 0),
    which is exactly the skew a hash partitioner exists to destroy.
    """
    if key is None:
        return 0
    if isinstance(key, int):
        text = str(key)
    elif isinstance(key, str):
        text = key
    else:
        text = repr(key)
    value = 2166136261
    for ch in text.encode("utf-8"):  # FNV-1a
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value


def partition_of(key: Hashable, partitions: int) -> int:
    """The index of the partition, out of ``partitions``, that owns ``key``."""
    return default_hash(key) % partitions


class Partitioner:
    """Maps a record to the downstream subtask indices that receive it."""

    def route(self, value: Any, key: Any, downstream: int) -> Sequence[int]:
        raise NotImplementedError

    @property
    def is_forward(self) -> bool:
        """Forward edges are the ones operator chaining may fuse."""
        return False


class ForwardPartitioner(Partitioner):
    """Subtask i → subtask i.  The runner validates equal parallelism."""

    def __init__(self) -> None:
        self.upstream_index = 0  # set per producing subtask by the runner

    def route(self, value: Any, key: Any, downstream: int) -> Sequence[int]:
        if self.upstream_index >= downstream:
            raise StateError(
                "forward edge requires equal upstream/downstream "
                "parallelism")
        return (self.upstream_index,)

    @property
    def is_forward(self) -> bool:
        return True


class HashPartitioner(Partitioner):
    """Route by key hash; all records of a key go to one subtask."""

    def __init__(self, key_fn: Callable[[Any], Any] | None = None) -> None:
        self.key_fn = key_fn

    def route(self, value: Any, key: Any, downstream: int) -> Sequence[int]:
        if self.key_fn is not None:
            key = self.key_fn(value)
        return (partition_of(key, downstream),)


class BroadcastPartitioner(Partitioner):
    """Every downstream subtask receives every record."""

    def route(self, value: Any, key: Any, downstream: int) -> Sequence[int]:
        return tuple(range(downstream))


class RebalancePartitioner(Partitioner):
    """Round-robin across downstream subtasks.

    One instance may serve edges of different widths (the runner reuses
    partitioner objects per edge factory), so the round-robin position is
    kept *per downstream width*: alternating calls with different widths
    each continue their own cycle instead of restarting at subtask 0 on
    every width change — the restart starved every subtask but 0.
    """

    def __init__(self) -> None:
        self._cycles: dict[int, "itertools.cycle[int]"] = {}

    def route(self, value: Any, key: Any, downstream: int) -> Sequence[int]:
        cycle = self._cycles.get(downstream)
        if cycle is None:
            cycle = self._cycles[downstream] = itertools.cycle(
                range(downstream))
        return (next(cycle),)
