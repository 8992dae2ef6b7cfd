"""An in-process, Kafka-style distributed queue (paper Figure 5, left/right).

Streaming systems consume input from and push output to partitioned,
append-only logs (Kafka, Pulsar).  This module substitutes a faithful
single-process equivalent: named **topics** split into **partitions**, each
an append-only offset-addressed log; **producers** route records to
partitions by key hash; **consumer groups** share partitions among their
members and track committed offsets, so replay-from-offset (the foundation
of exactly-once recovery) works exactly as in the real system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator

from repro.core.errors import BrokerError
from repro.core.time import Timestamp
from repro.runtime.partitioning import partition_of


@dataclass(frozen=True)
class BrokerRecord:
    """One record as stored in / fetched from a partition log."""

    topic: str
    partition: int
    offset: int
    key: Hashable
    value: Any
    timestamp: Timestamp


class Partition:
    """A single append-only log with offset addressing."""

    def __init__(self, topic: str, index: int) -> None:
        self.topic = topic
        self.index = index
        self._log: list[BrokerRecord] = []

    def append(self, key: Hashable, value: Any,
               timestamp: Timestamp) -> BrokerRecord:
        record = BrokerRecord(self.topic, self.index, len(self._log),
                              key, value, timestamp)
        self._log.append(record)
        return record

    def read(self, offset: int, max_records: int | None = None,
             ) -> list[BrokerRecord]:
        if offset < 0:
            raise BrokerError(f"negative offset {offset}")
        end = None if max_records is None else offset + max_records
        return self._log[offset:end]

    def compacted(self) -> list[BrokerRecord]:
        """The log-compacted view: only each key's latest record survives
        (Kafka's cleanup.policy=compact, the changelog-topic contract).
        Records with ``value is None`` are tombstones: after compaction
        the key disappears entirely.
        """
        latest: dict = {}
        for record in self._log:
            latest[record.key] = record
        return sorted((r for r in latest.values() if r.value is not None),
                      key=lambda r: r.offset)

    @property
    def end_offset(self) -> int:
        """The offset the next appended record will receive."""
        return len(self._log)

    def __len__(self) -> int:
        return len(self._log)


class Topic:
    """A named set of partitions."""

    def __init__(self, name: str, partitions: int) -> None:
        if partitions <= 0:
            raise BrokerError(f"need at least one partition, "
                              f"got {partitions}")
        self.name = name
        self.partitions = [Partition(name, i) for i in range(partitions)]
        self._round_robin = itertools.cycle(range(partitions))

    def route(self, key: Hashable) -> int:
        """Partition index for a key (hash routing; None → round-robin)."""
        if key is None:
            return next(self._round_robin)
        return partition_of(key, len(self.partitions))

    @property
    def partition_count(self) -> int:
        return len(self.partitions)


class Broker:
    """The broker: topic management, produce, fetch."""

    def __init__(self) -> None:
        self._topics: dict[str, Topic] = {}

    def create_topic(self, name: str, partitions: int = 1) -> Topic:
        if name in self._topics:
            raise BrokerError(f"topic {name!r} already exists")
        topic = Topic(name, partitions)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise BrokerError(f"unknown topic {name!r}") from None

    def topic_names(self) -> list[str]:
        return sorted(self._topics)

    def produce(self, topic_name: str, value: Any,
                key: Hashable = None,
                timestamp: Timestamp = 0,
                partition: int | None = None) -> BrokerRecord:
        """Append a record; returns it with its assigned partition/offset."""
        topic = self.topic(topic_name)
        if partition is None:
            partition = topic.route(key)
        if not 0 <= partition < topic.partition_count:
            raise BrokerError(
                f"partition {partition} out of range for {topic_name!r}")
        return topic.partitions[partition].append(key, value, timestamp)

    def produce_all(self, topic_name: str,
                    records: Iterable[tuple[Hashable, Any, Timestamp]],
                    ) -> int:
        """Bulk produce ``(key, value, timestamp)`` tuples; returns count."""
        n = 0
        for key, value, timestamp in records:
            self.produce(topic_name, value, key=key, timestamp=timestamp)
            n += 1
        return n

    def fetch(self, topic_name: str, partition: int, offset: int,
              max_records: int | None = None) -> list[BrokerRecord]:
        topic = self.topic(topic_name)
        if not 0 <= partition < topic.partition_count:
            raise BrokerError(
                f"partition {partition} out of range for {topic_name!r}")
        return topic.partitions[partition].read(offset, max_records)

    def end_offsets(self, topic_name: str) -> list[int]:
        return [p.end_offset for p in self.topic(topic_name).partitions]


class ConsumerGroup:
    """Cooperative consumption with committed offsets.

    Members joining the group trigger a range rebalance: partitions are
    split contiguously among members.  Each member polls only its assigned
    partitions; offsets are committed per (topic, partition) at group level,
    so a restarted member resumes where the group left off — the
    at-least-once / exactly-once replay contract.
    """

    def __init__(self, broker: Broker, group_id: str,
                 topics: Iterable[str]) -> None:
        self.broker = broker
        self.group_id = group_id
        self.topics = list(topics)
        for name in self.topics:
            broker.topic(name)  # validate
        self._members: list[str] = []
        self._assignment: dict[str, list[tuple[str, int]]] = {}
        self._committed: dict[tuple[str, int], int] = {}
        self._positions: dict[tuple[str, int], int] = {}

    def join(self, member_id: str) -> list[tuple[str, int]]:
        """Add a member; rebalance; return its new assignment."""
        if member_id in self._members:
            raise BrokerError(f"member {member_id!r} already joined")
        self._members.append(member_id)
        self._rebalance()
        return self.assignment(member_id)

    def leave(self, member_id: str) -> None:
        if member_id not in self._members:
            raise BrokerError(f"unknown member {member_id!r}")
        self._members.remove(member_id)
        self._rebalance()

    def _rebalance(self) -> None:
        all_partitions = [
            (name, p) for name in self.topics
            for p in range(self.broker.topic(name).partition_count)]
        self._assignment = {m: [] for m in self._members}
        if not self._members:
            return
        for i, tp in enumerate(all_partitions):
            member = self._members[i % len(self._members)]
            self._assignment[member].append(tp)
        # Reset uncommitted read positions: a rebalance re-reads from the
        # last commit, exactly like Kafka.
        self._positions = dict(self._committed)

    def assignment(self, member_id: str) -> list[tuple[str, int]]:
        try:
            return list(self._assignment[member_id])
        except KeyError:
            raise BrokerError(f"unknown member {member_id!r}") from None

    def poll(self, member_id: str,
             max_records: int | None = None) -> list[BrokerRecord]:
        """Fetch new records from the member's partitions, round-robin.

        Positions advance from the **offsets of the records actually
        received**, not the requested count: under a faulty transport
        (see :class:`repro.chaos.ChaosBroker`) a fetch may come back
        short, duplicated, or reordered, and ``position + len(records)``
        would silently skip or re-deliver log entries.  Only the
        contiguous offset prefix is consumed — duplicates are dropped,
        out-of-order records are resequenced, and anything after a gap is
        left for the next poll to re-fetch (the TCP-style cumulative-ack
        discipline), so consumers see each offset exactly once, in order.
        """
        out: list[BrokerRecord] = []
        for topic_name, partition in self.assignment(member_id):
            key = (topic_name, partition)
            position = self._positions.get(key, 0)
            remaining = (None if max_records is None
                         else max_records - len(out))
            if remaining is not None and remaining <= 0:
                break
            fetched = self.broker.fetch(topic_name, partition, position,
                                        remaining)
            expected = position
            for record in sorted(fetched, key=lambda r: r.offset):
                if record.offset == expected:
                    out.append(record)
                    expected += 1
                elif record.offset > expected:
                    break  # gap: dropped in transit, re-fetch next poll
            self._positions[key] = expected
        return out

    def commit(self, member_id: str) -> None:
        """Commit the member's current positions for its partitions."""
        for tp in self.assignment(member_id):
            if tp in self._positions:
                self._committed[tp] = self._positions[tp]

    def committed(self, topic_name: str, partition: int) -> int:
        return self._committed.get((topic_name, partition), 0)

    def lag(self) -> int:
        """Total records available but not yet committed across topics."""
        total = 0
        for name in self.topics:
            for partition, end in enumerate(self.broker.end_offsets(name)):
                total += end - self.committed(name, partition)
        return total


def replay(broker: Broker, topic_name: str) -> Iterator[BrokerRecord]:
    """Iterate a topic's full contents in (partition, offset) order —
    the 'reprocess history' capability append-only logs give for free."""
    topic = broker.topic(topic_name)
    for partition in topic.partitions:
        yield from partition.read(0)


def replay_compacted(broker: Broker,
                     topic_name: str) -> Iterator[BrokerRecord]:
    """Iterate the topic's log-compacted view: latest record per key,
    tombstones removed — bootstrapping a table from a changelog topic
    reads exactly this (the stream/table duality's storage side)."""
    topic = broker.topic(topic_name)
    for partition in topic.partitions:
        yield from partition.compacted()
