"""Exchange: the kernel's keyed shuffle edge (fission, survey §4.2).

Fission replicates a stateful operator N ways and splits its input by
key so each replica owns a disjoint key range — the survey's single
biggest scale-out optimisation.  Inside one kernel :class:`Plan` the
shuffle is three operators:

* :class:`Exchange` stamps every element with its target partition,
  routing through the :class:`~repro.runtime.partitioning.Partitioner`
  family (hash by default — the same fixed ``default_hash`` the broker
  and the job runtime use, so in-plan fission, the worker pool and the
  actor runtime all agree on key placement);
* :class:`PartitionGate` in front of replica *i* admits only partition
  *i*'s elements (stateless and fusible, so it chains into the replica);
* :class:`Merge` re-unifies the replica outputs.  It carries no logic of
  its own: the plan wires a :class:`~repro.exec.watermarks.WatermarkTracker`
  over its N input channels, so the merged event-time clock is the
  *minimum* across partitions — one slow partition holds the clock back
  rather than letting another partition's panes fire early.  That
  per-partition min-combine is what makes event-time semantics survive
  the shuffle.

``fission`` splices the whole pattern into a plan under construction.

The multi-process execution of the same shape lives in
:mod:`repro.runtime.pool`; this module is the same-process fallback and
the semantic reference the pool's output is difftested against.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exec.operator import Operator

__all__ = ["Exchange", "PartitionGate", "Merge", "fission"]


class Exchange(Operator):
    """Stamps elements with their target partition: ``(partition, value)``.

    ``key_fn`` extracts the routing key from an element; the partitioner
    (a :class:`repro.runtime.partitioning.Partitioner`, hash by default)
    maps it to one or more of ``parallelism`` downstream partitions.
    Broadcast partitioners fan one element out to every partition —
    useful for dimension-table sides of a fissioned join.
    """

    fusible = True

    def __init__(self, parallelism: int,
                 key_fn: Callable[[Any], Any],
                 partitioner=None) -> None:
        if parallelism < 1:
            raise ValueError(f"need at least one partition, "
                             f"got {parallelism}")
        self.parallelism = parallelism
        self.key_fn = key_fn
        if partitioner is None:
            # Imported lazily: repro.runtime imports repro.exec at package
            # level, so a module-level import here would be circular.
            from repro.runtime.partitioning import HashPartitioner
            partitioner = HashPartitioner()
        self.partitioner = partitioner

    def process_element(self, value: Any, input_index: int = 0) -> None:
        emit = self.ctx.emitter.emit
        for index in self.partitioner.route(
                value, self.key_fn(value), self.parallelism):
            emit((index, value))


class PartitionGate(Operator):
    """Admits partition ``index``'s elements into one fission replica."""

    fusible = True

    def __init__(self, index: int) -> None:
        self.index = index

    def process_element(self, stamped: tuple[int, Any],
                        input_index: int = 0) -> None:
        if stamped[0] == self.index:
            self.ctx.emitter.emit(stamped[1])


class Merge(Operator):
    """Re-unifies fission replica outputs into one channel.

    Deliberately logic-free: elements pass through in arrival order, and
    the event-time min-combine across the replica inputs is the plan's
    per-node :class:`~repro.exec.watermarks.WatermarkTracker` doing its
    normal job over N channels.
    """

    def process_element(self, value: Any, input_index: int = 0) -> None:
        self.ctx.emitter.emit(value)


def fission(plan, upstream: str, name: str, parallelism: int,
            key_fn: Callable[[Any], Any],
            replica_factory: Callable[[int], Operator],
            partitioner=None) -> str:
    """Splice ``parallelism`` replicas of an operator into ``plan``.

    Builds ``upstream → Exchange → (gate_i → replica_i)×N → Merge`` and
    returns the merge channel name, to be used as the downstream's input.
    ``replica_factory(i)`` must return a *fresh* operator per partition —
    replicas own disjoint key ranges and must not share state.
    """
    exchange = plan.add_operator(
        f"{name}.exchange",
        Exchange(parallelism, key_fn, partitioner=partitioner),
        [upstream])
    replicas = []
    for index in range(parallelism):
        gate = plan.add_operator(f"{name}.gate{index}",
                                 PartitionGate(index), [exchange])
        replicas.append(plan.add_operator(f"{name}!{index}",
                                          replica_factory(index), [gate]))
    return plan.add_operator(f"{name}.merge", Merge(), replicas)
