"""The kernel ``Operator`` protocol and emitters.

Every execution substrate in the repo lowers to this surface: an operator
is opened with an :class:`OperatorContext`, receives pushed elements via
``process_element``, watermarks via ``process_watermark``, and emits
downstream through its context's :class:`Emitter`.  ``FusedOperator``
collapses a chain of operators into one, eliminating per-hop dispatch —
the same optimisation ``runtime/dag.py`` applies to job graphs, now
available to any kernel plan.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.time import Timestamp
from repro.exec.state import DictStateBackend, StateBackend


class Emitter:
    """Downstream output channel of an operator."""

    def emit(self, value: Any) -> None:
        raise NotImplementedError

    def emit_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.emit(value)

    def emit_watermark(self, watermark: Timestamp) -> None:  # pragma: no cover
        """Forward a watermark downstream (no-op unless routed)."""


class CollectingEmitter(Emitter):
    """Buffers emissions; the host drains them (pull/actor adapters)."""

    def __init__(self) -> None:
        self.buffer: list[Any] = []

    def emit(self, value: Any) -> None:
        self.buffer.append(value)

    def drain(self) -> list[Any]:
        out, self.buffer = self.buffer, []
        return out


class StageEmitter(Emitter):
    """Feeds emissions straight into the next operator of a fused chain."""

    def __init__(self, downstream: "Operator") -> None:
        self._downstream = downstream

    def emit(self, value: Any) -> None:
        self._downstream.process_element(value)


class OperatorContext:
    """Everything an operator learns at ``open`` time."""

    def __init__(self, name: str = "", subtask: int = 0, parallelism: int = 1,
                 emitter: Emitter | None = None,
                 state_factory: Callable[[], StateBackend] = DictStateBackend,
                 watermark_fn: Callable[[], Timestamp] | None = None) -> None:
        self.name = name
        self.subtask = subtask
        self.parallelism = parallelism
        self.emitter = emitter if emitter is not None else CollectingEmitter()
        self.state_factory = state_factory
        self._watermark_fn = watermark_fn

    def new_state(self) -> StateBackend:
        return self.state_factory()

    def watermark(self) -> Timestamp:
        """Current combined input watermark of this operator."""
        if self._watermark_fn is None:
            return -1
        return self._watermark_fn()


class Operator:
    """Push-based physical operator: open / process / watermark / close."""

    #: stateless single-in single-out operators may be fused into chains
    fusible = False

    ctx: OperatorContext

    def open(self, ctx: OperatorContext) -> None:
        self.ctx = ctx

    def process_element(self, value: Any, input_index: int = 0) -> None:
        raise NotImplementedError

    def process_watermark(self, watermark: Timestamp,
                          input_index: int = 0) -> None:
        """Combined input watermark advanced to ``watermark``."""

    def close(self) -> None:
        """End of all inputs; flush any remaining output."""

    def emit(self, value: Any) -> None:
        self.ctx.emitter.emit(value)

    # -- checkpointing --------------------------------------------------------

    def snapshot(self) -> Any:
        return None

    def restore(self, state: Any) -> None:  # pragma: no cover - default no-op
        pass


class FusedOperator(Operator):
    """A chain of operators executed as one, without per-hop dispatch.

    Elements enter at the head; each member's emitter pushes synchronously
    into the next member, and the tail writes to the fused operator's own
    downstream.  Watermarks and close cascade head-to-tail so flushed
    output still traverses the remainder of the chain.
    """

    def __init__(self, members: Iterable[Operator]) -> None:
        flattened: list[Operator] = []
        for member in members:
            if isinstance(member, FusedOperator):
                flattened.extend(member.members)
            else:
                flattened.append(member)
        if not flattened:
            raise ValueError("FusedOperator needs at least one member")
        self.members = flattened
        self.fusible = all(member.fusible for member in flattened)
        # Watermarks only cascade to members that actually override the
        # base no-op; the rest would burn a call per advance for nothing.
        self._wm_members = [
            member for member in flattened
            if type(member).process_watermark is not Operator.process_watermark]

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        downstream: Emitter = ctx.emitter
        # Wire tail-first so each member's emitter targets an opened successor.
        for position in range(len(self.members) - 1, -1, -1):
            member = self.members[position]
            member.open(OperatorContext(
                name=f"{ctx.name}[{position}]", subtask=ctx.subtask,
                parallelism=ctx.parallelism, emitter=downstream,
                state_factory=ctx.state_factory,
                watermark_fn=ctx._watermark_fn))
            downstream = StageEmitter(member)

    def process_element(self, value: Any, input_index: int = 0) -> None:
        self.members[0].process_element(value, input_index)

    def process_watermark(self, watermark: Timestamp,
                          input_index: int = 0) -> None:
        for member in self._wm_members:
            member.process_watermark(watermark, input_index)
            input_index = 0

    def close(self) -> None:
        for member in self.members:
            member.close()

    def snapshot(self) -> Any:
        return [member.snapshot() for member in self.members]

    def restore(self, state: Any) -> None:
        for member, member_state in zip(self.members, state):
            member.restore(member_state)
