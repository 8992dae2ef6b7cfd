"""Tests for the operator protocol (repro.exec)."""

from repro.exec import Operator, OperatorContext


class AddOne(Operator):
    def process_element(self, value, input_index=0):
        self.emit(value + 1)


class TestOperatorBasics:
    def test_collecting_emitter_buffers_and_drains(self):
        op = AddOne()
        op.open(OperatorContext())
        op.process_element(1)
        op.process_element(2)
        assert op.ctx.emitter.drain() == [2, 3]
        assert op.ctx.emitter.drain() == []
