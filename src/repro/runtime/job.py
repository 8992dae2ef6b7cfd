"""Job execution: the actor-based streaming runtime (Figure 5 assembled).

Every operator subtask is an actor; records, watermarks, checkpoint
barriers and end-of-stream markers flow as messages.  Within one input
channel ordering is FIFO (actor mailboxes preserve send order), which is
exactly the guarantee the alignment and watermark protocols need.

The runner supports:

* **parallel subtasks** with hash/forward/broadcast/rebalance edges;
* **operator chaining** (fusion) before deployment;
* **event-time watermarks** with minimum-across-channels propagation;
* **aligned-barrier checkpointing** and **exactly-once recovery**: on
  failure, operator state and source offsets are restored from the last
  complete checkpoint and uncommitted sink output is discarded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import repro.obs as obs
from repro.obs import profile as _profile
from repro.core.errors import StateError
from repro.core.time import MAX_TIMESTAMP, Timestamp
from repro.runtime.actors import Actor, ActorRef, ActorSystem
from repro.runtime.checkpoint import CheckpointCoordinator
from repro.runtime.dag import (
    Element,
    JobGraph,
    StreamOperator,
    chain_operators,
)
from repro.runtime.partitioning import ForwardPartitioner, Partitioner

Channel = tuple[str, int]


@dataclass(frozen=True)
class DataMsg:
    channel: Channel
    element: Element


@dataclass(frozen=True)
class WatermarkMsg:
    channel: Channel
    value: Timestamp


@dataclass(frozen=True)
class BarrierMsg:
    channel: Channel
    checkpoint_id: int


@dataclass(frozen=True)
class EndMsg:
    channel: Channel


@dataclass(frozen=True)
class RunSourceMsg:
    pass


class JobFailure(Exception):
    """Raised by operators to simulate a crash (drives recovery tests)."""


class _OutEdge:
    """Routing info for one outgoing edge of a subtask."""

    def __init__(self, downstream: str, parallelism: int,
                 partitioner: Partitioner, subtask: int) -> None:
        self.downstream = downstream
        self.parallelism = parallelism
        self.partitioner = partitioner
        if isinstance(partitioner, ForwardPartitioner):
            partitioner.upstream_index = subtask


class _Emitter:
    """Routes a subtask's output elements onto downstream mailboxes."""

    def __init__(self, system: ActorSystem, vertex: str, subtask: int,
                 out_edges: list[_OutEdge]) -> None:
        self._system = system
        self.channel: Channel = (vertex, subtask)
        self._out = out_edges
        self.records_out = 0

    def _ref(self, vertex: str, index: int) -> ActorRef:
        return self._system.ref(f"{vertex}#{index}")

    def emit(self, element: Element) -> None:
        self.records_out += 1
        for edge in self._out:
            for index in edge.partitioner.route(
                    element.value, element.key, edge.parallelism):
                self._ref(edge.downstream, index).tell(
                    DataMsg(self.channel, element))

    def emit_all(self, elements: Iterable[Element]) -> None:
        for element in elements:
            self.emit(element)

    def broadcast(self, make_msg: Callable[[Channel], Any]) -> None:
        message = make_msg(self.channel)
        for edge in self._out:
            for index in range(edge.parallelism):
                self._ref(edge.downstream, index).tell(message)


class SourceSubtask(Actor):
    """Replays its share of the input, injecting watermarks and barriers."""

    def __init__(self, vertex: str, subtask: int,
                 records: list[tuple[Any, Any, Timestamp]],
                 watermark_lag: Timestamp,
                 emitter: _Emitter,
                 coordinator: CheckpointCoordinator,
                 start_offset: int = 0) -> None:
        super().__init__()
        self.vertex = vertex
        self.subtask = subtask
        self._records = records
        self._lag = watermark_lag
        self._emitter = emitter
        self._coordinator = coordinator
        self._offset = start_offset

    def receive(self, message: Any, sender: ActorRef | None) -> None:
        if not isinstance(message, RunSourceMsg):
            raise StateError(f"source got unexpected message {message!r}")
        max_seen: Timestamp = -1
        # Replay the prefix's watermark effect when resuming from an offset.
        for value, key, timestamp in self._records[:self._offset]:
            max_seen = max(max_seen, timestamp)
        while self._offset < len(self._records):
            value, key, timestamp = self._records[self._offset]
            self._emitter.emit(Element(value, key, timestamp))
            self._offset += 1
            barrier = self._coordinator.barrier_due(self._offset)
            if barrier is not None:
                self._coordinator.report_source(
                    barrier, self.vertex, self.subtask, self._offset)
                self._emitter.broadcast(
                    lambda ch, b=barrier: BarrierMsg(ch, b))
            if timestamp > max_seen:
                max_seen = timestamp
                self._emitter.broadcast(
                    lambda ch, w=max_seen - self._lag - 1: WatermarkMsg(
                        ch, w))
        self._emitter.broadcast(
            lambda ch: WatermarkMsg(ch, MAX_TIMESTAMP))
        self._emitter.broadcast(EndMsg)


class OperatorSubtask(Actor):
    """One parallel instance of an operator vertex.

    It calls the operator's hooks and routes what they return through
    its out-edges.  Its event-time clock is the minimum of its input
    channels' watermarks and never moves back.  A channel sends
    ``WatermarkMsg(MAX_TIMESTAMP)`` before its ``EndMsg`` (sources do,
    and a subtask does once all its inputs have), so an ended channel
    sits at the maximum and never holds the minimum back.
    """

    #: Mailbox depth at which the channel-edge pressure signal trips
    #: (mailboxes are unbounded, so this is a fixed depth, not a
    #: fraction of capacity like the DSMS input queues).
    PRESSURE_DEPTH = 64

    def __init__(self, vertex: str, subtask: int, operator: StreamOperator,
                 channels: list[Channel], emitter: _Emitter,
                 coordinator: CheckpointCoordinator) -> None:
        super().__init__()
        self.vertex = vertex
        self.subtask = subtask
        self.operator = operator
        self._emitter = emitter
        self._coordinator = coordinator
        self._marks: dict[Channel, Timestamp] = dict.fromkeys(channels, -1)
        self._watermark: Timestamp = -1
        self._ended: set[Channel] = set()
        self._channels = list(channels)
        self._pressured = False
        # Barrier alignment state.
        self._aligning: int | None = None
        self._aligned: set[Channel] = set()
        self._buffered: list[Any] = []

    # -- message handling ------------------------------------------------------

    def receive(self, message: Any, sender: ActorRef | None) -> None:
        # A channel that already delivered the current barrier is blocked:
        # everything it sends (data, watermarks, even the *next* barrier)
        # is buffered until alignment completes.  This is what prevents
        # pre-barrier and post-barrier records from mixing in the snapshot
        # and keeps concurrent checkpoints ordered.
        if self._aligning is not None and \
                getattr(message, "channel", None) in self._aligned:
            self._buffered.append(message)
            return
        if isinstance(message, DataMsg):
            self._process_data(message)
        elif isinstance(message, WatermarkMsg):
            self._process_watermark(message)
        elif isinstance(message, BarrierMsg):
            self._process_barrier(message)
        elif isinstance(message, EndMsg):
            self._process_end(message)
        else:
            raise StateError(f"unexpected message {message!r}")

    def _process_data(self, message: DataMsg) -> None:
        if obs.is_enabled():
            registry = obs.get_registry()
            registry.counter("exec.operator.records_in", layer="runtime",
                             operator=self.vertex).inc()
            mailbox = self.context.system._mailboxes.get(
                f"{self.vertex}#{self.subtask}")
            if mailbox is not None:
                depth = len(mailbox)
                registry.gauge("runtime.vertex.queue_depth",
                               vertex=self.vertex).observe(depth)
                # Edge-triggered pressure signal on the channel edge (the
                # gauge's running max is already the depth high-water
                # mark; this counts sustained-overload episodes).
                if depth >= self.PRESSURE_DEPTH:
                    if not self._pressured:
                        self._pressured = True
                        registry.counter("runtime.vertex.pressure_events",
                                         vertex=self.vertex).inc()
                        if _profile._ENABLED:
                            _profile._RECORDER.record(
                                "channel.pressure", vertex=self.vertex,
                                subtask=self.subtask, depth=depth)
                else:
                    self._pressured = False
        self._emitter.emit_all(self.operator.process(message.element))

    def _process_watermark(self, message: WatermarkMsg) -> None:
        marks = self._marks
        if message.value <= marks[message.channel]:
            return
        marks[message.channel] = message.value
        combined = min(marks.values())
        if combined > self._watermark:
            self._watermark = combined
            self._fire_watermark(combined)

    def _fire_watermark(self, combined: Timestamp) -> None:
        if obs.is_enabled():
            obs.get_registry().gauge(
                "exec.operator.watermark", layer="runtime",
                operator=self.vertex).set(combined)
        operator, emit_all = self.operator, self._emitter.emit_all
        for fire_at, key in operator.timers.due(combined):
            emit_all(operator.on_timer(fire_at, key))
        emit_all(operator.on_watermark(combined))
        self._emitter.broadcast(
            lambda ch, w=combined: WatermarkMsg(ch, w))

    def _process_barrier(self, message: BarrierMsg) -> None:
        if self._aligning is None:
            self._aligning = message.checkpoint_id
            self._aligned = set()
        if message.checkpoint_id != self._aligning:
            raise StateError(
                f"overlapping checkpoints {self._aligning} and "
                f"{message.checkpoint_id} (alignment violated)")
        self._aligned.add(message.channel)
        open_channels = set(self._channels) - self._ended
        if self._aligned >= open_channels:
            checkpoint_id = self._aligning
            if _profile._ENABLED:
                _profile._RECORDER.record(
                    "checkpoint.barrier", vertex=self.vertex,
                    subtask=self.subtask, checkpoint=checkpoint_id)
            self.operator.on_barrier(checkpoint_id)
            self._coordinator.report_operator(
                checkpoint_id, self.vertex, self.subtask,
                (self.operator.snapshot(),
                 self.operator.timers.snapshot()))
            self._emitter.broadcast(
                lambda ch, b=checkpoint_id: BarrierMsg(ch, b))
            self._aligning = None
            self._aligned = set()
            buffered, self._buffered = self._buffered, []
            for data in buffered:
                self.receive(data, None)

    def _process_end(self, message: EndMsg) -> None:
        self._ended.add(message.channel)
        # An ended channel no longer blocks alignment.
        if self._aligning is not None:
            self._process_barrier_progress()
        if self._ended >= set(self._channels):
            self._emitter.emit_all(self.operator.on_end())
            self._emitter.broadcast(EndMsg)
            self.context.stop_self()

    def _process_barrier_progress(self) -> None:
        open_channels = set(self._channels) - self._ended
        if self._aligned >= open_channels and self._aligning is not None:
            # Re-run completion via a synthetic barrier from an aligned
            # channel (idempotent path through _process_barrier).
            checkpoint_id = self._aligning
            some_channel = next(iter(self._aligned), self._channels[0])
            self._process_barrier(BarrierMsg(some_channel, checkpoint_id))


class JobResult:
    """What a finished run returns: sink outputs and counters."""

    def __init__(self) -> None:
        self.sink_outputs: dict[str, list[Element]] = defaultdict(list)
        self.messages_processed = 0
        self.recoveries = 0
        self.completed_checkpoints: list[int] = []

    def values(self, sink: str) -> list[Any]:
        return [e.value for e in self.sink_outputs[sink]]


class JobRunner:
    """Deploys a job graph onto an actor system and runs it to completion.

    ``checkpoint_interval`` (records per source subtask) enables
    checkpointing; ``chaining`` applies the fusion optimisation first.
    ``max_restarts`` bounds recovery attempts after :class:`JobFailure`.
    """

    def __init__(self, graph: JobGraph, chaining: bool = True,
                 checkpoint_interval: int | None = None,
                 max_restarts: int = 3) -> None:
        graph.validate()
        self.graph = chain_operators(graph) if chaining else graph
        self.checkpoint_interval = checkpoint_interval
        self.max_restarts = max_restarts
        source_participants: set[tuple[str, int]] = set()
        operator_participants: set[tuple[str, int]] = set()
        for name, source in self.graph.sources.items():
            source_participants.update((name, i)
                                       for i in range(source.parallelism))
        for name, vertex in self.graph.vertices.items():
            operator_participants.update((name, i)
                                         for i in range(vertex.parallelism))
        self.coordinator = CheckpointCoordinator(
            checkpoint_interval, sources=source_participants,
            operators=operator_participants)
        # (vertex, subtask) -> epoch id -> committed elements.  Epochs are
        # overwritten idempotently on re-commit after recovery, which is
        # what deduplicates replayed output (exactly-once).
        self._committed_sink: dict[tuple[str, int],
                                   dict[Any, list[Element]]] = \
            defaultdict(dict)
        self.system: ActorSystem | None = None
        self._operators: dict[tuple[str, int], StreamOperator] = {}
        self._emitters: dict[tuple[str, int], _Emitter] = {}

    # -- deployment -------------------------------------------------------------

    def _channels_into(self, name: str) -> list[Channel]:
        channels: list[Channel] = []
        for edge in self.graph.upstream_edges(name):
            upstream_parallelism = self.graph.parallelism_of(edge.upstream)
            channels.extend((edge.upstream, i)
                            for i in range(upstream_parallelism))
        return channels

    def _out_edges(self, name: str, subtask: int) -> list[_OutEdge]:
        out = []
        for edge in self.graph.downstream_edges(name):
            out.append(_OutEdge(
                edge.downstream,
                self.graph.parallelism_of(edge.downstream),
                edge.partitioner(), subtask))
        return out

    def _deploy(self, restore_from=None) -> None:
        self.system = ActorSystem()
        self._operators = {}
        self._emitters = {}
        offsets = {}
        states = {}
        if restore_from is not None:
            offsets = restore_from.source_offsets
            states = restore_from.operator_state
        for name, vertex in self.graph.vertices.items():
            channels = self._channels_into(name)
            for subtask in range(vertex.parallelism):
                operator = vertex.factory()
                emitter = _Emitter(self.system, name, subtask,
                                   self._out_edges(name, subtask))
                operator.open(subtask, vertex.parallelism)
                key = (name, subtask)
                if key in states:
                    op_state, timer_state = states[key]
                    operator.restore(op_state)
                    operator.timers.restore(timer_state)
                self._operators[key] = operator
                self._emitters[key] = emitter
                self.system.spawn(
                    f"{name}#{subtask}",
                    OperatorSubtask(name, subtask, operator, channels,
                                    emitter, self.coordinator))
        for name, source in self.graph.sources.items():
            for subtask in range(source.parallelism):
                emitter = _Emitter(self.system, name, subtask,
                                   self._out_edges(name, subtask))
                self._emitters[(name, subtask)] = emitter
                self.system.spawn(
                    f"{name}#{subtask}",
                    SourceSubtask(name, subtask, source.records[subtask],
                                  source.watermark_lag, emitter,
                                  self.coordinator,
                                  start_offset=offsets.get(
                                      (name, subtask), 0)))

    # -- running ----------------------------------------------------------------

    def run(self) -> JobResult:
        """Run to completion, recovering from JobFailure if checkpointing
        is enabled."""
        result = JobResult()
        restore_from = None
        attempts = 0
        tracer = obs.get_tracer() if obs.is_enabled() else obs.NoopTracer()
        with tracer.span("runtime.job.run", job=self.graph.name) as root:
            while True:
                self._deploy(restore_from)
                for name, source in self.graph.sources.items():
                    for subtask in range(source.parallelism):
                        self.system.ref(f"{name}#{subtask}").tell(
                            RunSourceMsg())
                try:
                    with tracer.span("runtime.job.attempt",
                                     attempt=attempts) as span:
                        self.system.run_until_idle()
                        span.add(messages=self.system.messages_processed)
                    result.messages_processed += \
                        self.system.messages_processed
                    break
                except JobFailure:
                    # The crashed attempt's work still counts: it is the
                    # overhead recovery pays for (the ablation's metric).
                    result.messages_processed += \
                        self.system.messages_processed
                    attempts += 1
                    result.recoveries += 1
                    if attempts > self.max_restarts:
                        raise
                    restore_from = self.coordinator.latest_complete()
                    if _profile._ENABLED:
                        _profile._RECORDER.record(
                            "recovery.attempt", layer="runtime",
                            job=self.graph.name, attempt=attempts,
                            checkpoint=(restore_from.checkpoint_id
                                        if restore_from is not None
                                        else None))
                    # Replaying sources recount from the restored offset,
                    # so barrier ids up to the restored checkpoint will be
                    # derived again; retire them (and the crashed
                    # attempt's partial snapshots) before redeploying.
                    self.coordinator.reset_for_restore(
                        restore_from.checkpoint_id
                        if restore_from is not None else None)
                    self._collect_committed()
            root.add(messages=result.messages_processed,
                     recoveries=result.recoveries)
            if obs.is_enabled():
                self.publish_observability()
        self._collect_committed()
        for (name, subtask), epochs in self._committed_sink.items():
            if name in self.graph.sinks:
                alias = self.graph.sink_alias(name)
                for elements in epochs.values():
                    result.sink_outputs[alias].extend(elements)
        for name in list(result.sink_outputs):
            result.sink_outputs[name].sort(
                key=lambda e: (e.timestamp, repr(e.value)))
        result.completed_checkpoints = self.coordinator.completed_ids()
        return result

    def _collect_committed(self) -> None:
        """Harvest committed epochs from transactional sinks.

        Keyed by epoch id so that epochs re-committed after a recovery
        overwrite (identically) instead of duplicating.
        """
        for (name, subtask), operator in self._operators.items():
            take = getattr(operator, "take_committed", None)
            if take is not None:
                self._committed_sink[(name, subtask)].update(take())

    def operator_instance(self, vertex: str,
                          subtask: int = 0) -> StreamOperator:
        """Access a deployed operator (tests and metrics)."""
        return self._operators[(vertex, subtask)]

    def publish_observability(self, registry=None) -> None:
        """Snapshot per-vertex throughput and checkpoint durations into
        the (global) metrics registry.  Pull-based and idempotent."""
        registry = registry if registry is not None else obs.get_registry()
        per_vertex: dict[str, int] = defaultdict(int)
        for (name, _subtask), emitter in self._emitters.items():
            per_vertex[name] += emitter.records_out
        for name, records_out in per_vertex.items():
            counter = registry.counter("exec.operator.records_out",
                                       layer="runtime", operator=name)
            counter.inc(max(0, records_out - counter.value))
        durations = registry.histogram("runtime.checkpoint.duration_seconds")
        for _checkpoint_id, seconds in \
                self.coordinator.durations[durations.count:]:
            durations.observe(seconds)
        registry.gauge("runtime.checkpoints.completed").set(
            len(self.coordinator.completed_ids()))
