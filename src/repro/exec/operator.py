"""The ``Operator`` protocol and emitters.

An operator is opened with an :class:`OperatorContext`, receives pushed
elements via ``process_element``, watermarks via ``process_watermark``,
and emits downstream through its context's :class:`Emitter`.  Its host
does the wiring: the dataflow runner hands each node an emitter into its
children, ``runtime/dag.py`` chains operators through
:class:`StageEmitter` and drains the tail's :class:`CollectingEmitter`.
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
    """Feeds emissions straight into the next operator of a chain."""

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
