"""One history per standing query.

The DSMS keeps each query's answer and history once: the query's
change-log (a ``Changelog``: the answer plus the batches that built it)
is what the Store reads, and the query's emissions are its handle's.
There is no second copy to write, checkpoint or roll back — and so none
that can drift from the first.
"""

import gc
import re
import weakref
from pathlib import Path

from repro.core import Changelog, Schema
from repro.core.relation import labelled
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])
ROOMS = Schema(["room", "floor"])
GROUPED = "SELECT room, COUNT(*) AS n FROM Obs [Range 20] GROUP BY room"


def make_engine(**kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    return engine


def feed(engine, ticks):
    for t in ticks:
        engine.ingest("Obs", {"id": t, "room": "ab"[t % 2], "temp": 20}, t)
        engine.run_until_idle()


class TestTheStoreReadsTheQuerysLog:
    def test_the_history_is_the_change_log_at_every_tick(self, monkeypatch):
        read = []
        relation = Changelog.relation

        def recorded(self, schema=None):
            read.append(self)
            return relation(self, schema)

        monkeypatch.setattr(Changelog, "relation", recorded)
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        log = handle.query.changelog
        for ticks in (range(1, 51), range(51, 2001)):
            feed(engine, ticks)
            read.clear()
            assert handle.store_history() == engine.store.history("q") \
                == handle.query.as_relation()
            # Every history read is built from the query's own log.
            assert read == [log, log, log]
            # The Store's answer is the log's contents, labelled.
            assert engine.store.current("q") == handle.query.current() \
                == labelled(log.contents, handle.query.output_schema)

    def test_the_barrier_holds_only_queries_and_views(self):
        engine = make_engine(recovery_interval=4)
        engine.register_query("q", GROUPED)
        engine.register_query("s", "SELECT ISTREAM id FROM Obs [Now]")
        feed(engine, range(1, 10))
        payload = engine.recovery.latest().state
        assert set(payload) == {"queries", "views"}
        assert set(payload["queries"]) == {"q", "s"}

    def test_a_cancelled_query_keeps_its_answer_not_its_operators(self):
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        feed(engine, range(1, 6))
        answer, history = handle.store_state(), handle.store_history()
        query = weakref.ref(handle.query)
        assert engine.cancel_query("q") is handle
        assert handle.store_state() == answer
        del handle
        gc.collect()
        assert query() is None
        # The answer and its history survive the query's operators.
        assert engine.store.current("q") == answer
        assert engine.store.history("q") == history
        assert len(history) == 5


class TestRegistrationOutput:
    def test_the_handle_emits_what_the_registration_instant_emitted(self):
        engine = DSMSEngine()
        engine.register_relation("Rooms", ROOMS, [
            {"room": "a", "floor": 1}, {"room": "b", "floor": 2}])
        handle = engine.register_query(
            "q", "SELECT ISTREAM room, floor FROM Rooms")
        emitted = sorted((e.record["room"], e.record["floor"], e.timestamp)
                         for e in handle.emissions())
        assert emitted == [("a", 1, 0), ("b", 2, 0)]
        assert handle.emissions() == handle.query.emissions()
        assert len(handle.store_state()) == 2


def test_the_dsms_keeps_no_second_history():
    """Outside the query, the DSMS builds no time-varying relation and
    keeps no list of emissions."""
    package = Path(DSMSEngine.__module__.replace(".", "/")).parent
    root = Path(__file__).resolve().parents[2] / "src"
    banned = re.compile(r"\bTimeVaryingRelation\s*\(|\.from_snapshots\("
                        r"|\b_emissions\b|list\[Emission\]\s*=")
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted((root / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)]
    assert offenders == []


def test_only_the_reference_semantics_builds_a_history_in_cql_and_views():
    """Standing queries, tables and views keep a ``Changelog``: under
    ``repro/cql`` and ``repro/views`` only the reference semantics that
    tests compare against builds a time-varying relation."""
    src = Path(__file__).resolve().parents[2] / "src"
    exempt = {Path("repro/cql/reference.py")}
    banned = re.compile(r"\bTimeVaryingRelation\s*\(|\.from_snapshots\(")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for package in ("repro/cql", "repro/views")
        for path in sorted((src / package).rglob("*.py"))
        if path.relative_to(src) not in exempt
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)]
    assert offenders == []
