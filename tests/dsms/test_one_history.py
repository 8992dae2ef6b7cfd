"""One history per standing query.

The DSMS keeps each query's answer and history once: the query's
change-log (a ``Changelog``: the answer plus the batches that built it)
is what the Store reads, and the query's emissions — its handle's too —
are read off it.  A view's past versions are read off its own
change-log likewise.  There is no second copy to write, checkpoint or
roll back — and so none that can drift from the first.
"""

import gc
import random
import re
import weakref
from pathlib import Path

import pytest

import repro.cql.executor as executor
from repro.core import Changelog, Schema, Stream
from repro.core.relation import labelled
from repro.cql import CQLEngine
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


#: One history, by the forms a second one took: an emission list kept
#: on a query, a list of Emissions kept on any object, and the deltas a
#: refresh applied filed in a view's history.
SECOND_HISTORY = re.compile(
    r"\b_emissions\b|\bself\.\w+\s*:\s*list\[Emission\]"
    r"|\bhistory\b.*\bdeltas?\b", re.IGNORECASE)


@pytest.mark.parametrize("package", ["repro/cql", "repro/views"])
def test_cql_and_views_keep_no_second_history(package):
    """A query's emissions and a view's past versions are read off its
    change-log: neither package keeps them a second time."""
    src = Path(__file__).resolve().parents[2] / "src"
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted((src / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SECOND_HISTORY.search(line)]
    assert offenders == []


@pytest.mark.parametrize("line", [
    "        self._emissions: list[Emission] = []",
    "        self.out: list[Emission] = []",
    "        self.history: list[tuple[int, tuple[Delta, ...]]] = []",
    "        self.history.append((version, deltas))",
])
def test_the_guard_finds_a_second_history(line):
    assert SECOND_HISTORY.search(line)


R2S_TEXTS = {
    "istream": "SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 5] "
               "GROUP BY room",
    "rstream": "SELECT RSTREAM room, COUNT(*) AS n FROM Obs [Range 5] "
               "GROUP BY room",
}


def timed(emitted):
    """Emissions or stream elements as a sorted ``(instant, repr)`` list:
    the order a reference stream and a run agree on within an instant."""
    return sorted((element[1], repr(element[0])) for element in emitted)


class TestEmissionsAreReadOffTheLog:
    TICKS = 200

    @pytest.mark.parametrize("kind", sorted(R2S_TEXTS))
    def test_the_fold_labels_nothing(self, kind, monkeypatch):
        text, rng = R2S_TEXTS[kind], random.Random(7)
        labelled_now = []
        label = executor.trusted_record

        def counted(schema, values):
            labelled_now.append(values)
            return label(schema, values)

        monkeypatch.setattr(executor, "trusted_record", counted)
        engine = make_engine()
        handle = engine.register_query("q", text)
        rows = []
        # One arrival per tick, so the per-arrival quanta of an R2S
        # query are the reference's instants.
        for t in range(1, self.TICKS + 1):
            row = {"id": t, "room": rng.choice("abc"), "temp": t}
            rows.append((row, t))
            engine.ingest("Obs", row, t)
            engine.run_until_idle()
        engine.advance_time(self.TICKS + 10)  # every window closes
        # 200 ticks of folds and deliveries build no Record ...
        assert labelled_now == []
        emitted = handle.emissions()
        # ... a read labels what it returns, once per emission.
        assert len(labelled_now) == len(emitted) == handle.metrics.emitted
        assert emitted == handle.query.emissions()
        cql = CQLEngine()
        cql.register_stream("Obs", OBS)
        reference = cql.run_one_shot(
            text, {"Obs": Stream.of_records(OBS, rows)})
        assert timed(emitted) == timed(reference)

    def test_a_group_checkpoint_holds_log_lengths_only(self):
        engine = CQLEngine()
        engine.register_stream("Obs", OBS)
        group = engine.shared_group()
        members = [engine.register_query(text, shared=group)
                   for text in R2S_TEXTS.values()]
        for t in range(1, 6):
            group.push_batch(t, {"Obs": [
                {"id": t, "room": "ab"[t % 2], "temp": t}]})
        payload = group.snapshot()
        assert set(payload) == {"agenda", "log", "last_instant",
                                "deltas_processed", "operators"}
        assert payload["log"] == [len(m.changelog) for m in members]
        emitted = [m.emissions() for m in members]
        group.push_batch(6, {"Obs": [{"id": 6, "room": "c", "temp": 6}]})
        group.restore(payload)
        # The emissions since the barrier go with the batches they are
        # read off.
        assert [m.emissions() for m in members] == emitted
