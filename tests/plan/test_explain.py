"""Golden-file tests for the EXPLAIN renderer."""

from pathlib import Path

import pytest

from repro.core import Schema
from repro.cql import CQLEngine
from repro.plan.explain import explain, explain_logical

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.fixture
def engine():
    engine = CQLEngine()
    engine.register_stream("RoomObservation",
                           Schema(["id", "room", "temp"]))
    engine.register_relation("Person", Schema(["id", "name"]))
    return engine


class TestLogicalExplain:
    def test_listing1_style_query(self, engine):
        text = ("SELECT COUNT(P.id) AS n "
                "FROM Person P, RoomObservation O [Range 15] "
                "WHERE P.id = O.id AND O.temp > 20")
        assert engine.explain(text) + "\n" == golden("listing1_logical.txt")

    def test_pushdown_visible_in_explain(self, engine):
        # The rendered tree shows the filter *below* the window — the
        # pushdown regression guard in its human-readable form.
        text = ("SELECT COUNT(P.id) AS n "
                "FROM Person P, RoomObservation O [Range 15] "
                "WHERE P.id = O.id AND O.temp > 20")
        rendered = engine.explain(text)
        window_at = rendered.index("Window[")
        filter_at = rendered.index("Filter(")
        assert window_at < filter_at

    def test_dispatch_on_logical(self, engine):
        plan = engine.plan("SELECT id FROM RoomObservation [Now]")
        assert explain(plan) == explain_logical(plan)

