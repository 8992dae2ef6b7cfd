"""The per-arrival path: one Record per arrival, one Bag per instant.

Counts, not clocks: what the engine builds, copies and hashes per
arrival and per service quantum is counted directly and must not depend
on the fleet size or on how long the engine has run.  Beside the counts,
the regressions for what converting once and copying once fixed: a row
that does not fit its stream is refused at ``ingest`` (before anything
is logged), and a refused root fold changes nothing.
"""

import pytest

from repro.chaos import CrashFuse, install_crash
from repro.core import Record, Schema, SchemaError, StateError, TimeError
from repro.core.relation import Bag
from repro.cql.executor import ContinuousQuery
from repro.dsms import DSMSEngine, components

OBS = Schema(["id", "room", "temp"])
GROUPED = ("SELECT room, COUNT(*) AS n, AVG(temp) AS mean FROM Obs "
           "[Range 20] WHERE temp > 10 GROUP BY room")


def make_engine(schema=OBS, **kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", schema)
    return engine


def row(ident, room="lab", temp=20):
    return {"id": ident, "room": room, "temp": temp}


@pytest.fixture
def bag_copies(monkeypatch):
    """Every ``Bag.copy`` call, in order."""
    copies = []
    original = Bag.copy

    def counting(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(Bag, "copy", counting)
    return copies


class TestOneBagCopyPerInstant:
    QUERY = "SELECT room, COUNT(*) AS n FROM Obs [Range 50] " \
            "WHERE temp > 10 GROUP BY room"

    def warm(self, **kwargs):
        engine = make_engine(**kwargs)
        handle = engine.register_query("q", self.QUERY)
        for t in range(3):
            engine.ingest("Obs", row(t, "lab"), t)
            engine.ingest("Obs", row(t, "hall"), t)
        engine.run_until_idle()
        return engine, handle

    def test_one_copy_when_the_state_changes(self, bag_copies):
        engine, handle = self.warm()
        engine.ingest("Obs", row(9, "hall"), 3)
        bag_copies.clear()
        assert engine.step()
        assert len(bag_copies) == 1
        # The copy is the new state, the query's log entry and the
        # Store's entry all at once.
        stored = handle.store_history()
        assert handle.query._log[-1][1] is handle.query.state
        assert stored.at(3) is handle.query.state

    def test_no_copy_when_the_state_holds(self, bag_copies):
        engine, handle = self.warm()
        engine.ingest("Obs", row(9, "hall", temp=5), 3)  # filtered out
        logged = list(handle.query._log)
        bag_copies.clear()
        assert engine.step()
        assert bag_copies == []
        assert handle.query._log == logged

    def test_store_write_copies_nothing(self, bag_copies, monkeypatch):
        copies_inside = []
        original = components.Store.write

        def watched(self, name, state, t):
            mark = len(bag_copies)
            original(self, name, state, t)
            copies_inside.append(len(bag_copies) - mark)

        monkeypatch.setattr(components.Store, "write", watched)
        engine, _ = self.warm()
        for t in range(3, 8):
            engine.ingest("Obs", row(t, "lab"), t)
        engine.run_until_idle()
        engine.advance_time(100)
        assert len(copies_inside) > 5 and set(copies_inside) == {0}

    def test_one_copy_per_batched_instant(self, bag_copies):
        engine, handle = self.warm(batch_size=8)
        for ident in range(8):
            engine.ingest("Obs", row(ident, f"r{ident}"), 3)
        bag_copies.clear()
        assert engine.step()
        assert handle.metrics.processed == 14
        assert len(bag_copies) == 1


class TestOneQuantumPerInstant:
    """On a default engine a relation-output query evaluates, copies and
    stores each instant once, however many arrivals share it; a
    stream-output query still does so once per arrival."""

    @pytest.fixture
    def census(self, monkeypatch, bag_copies):
        counts = {"evaluations": 0, "writes": 0}
        evaluate = ContinuousQuery._process_instant
        write = components.Store.write

        def counted_evaluate(self, t):
            counts["evaluations"] += 1
            return evaluate(self, t)

        def counted_write(self, name, state, t):
            counts["writes"] += 1
            write(self, name, state, t)

        monkeypatch.setattr(ContinuousQuery, "_process_instant",
                            counted_evaluate)
        monkeypatch.setattr(components.Store, "write", counted_write)

        def read():
            return (counts["evaluations"], len(bag_copies), counts["writes"])

        def clear():
            counts.update(evaluations=0, writes=0)
            bag_copies.clear()

        return read, clear

    def per_instant(self, text, arrivals, census):
        read, clear = census
        engine = make_engine()
        engine.register_query("q", text)
        engine.ingest("Obs", row(0), 1)
        engine.run_until_idle()
        clear()
        for ident in range(1, arrivals + 1):
            engine.ingest("Obs", row(ident, f"r{ident}"), 2)
        engine.run_until_idle()
        return read()

    def test_relation_output_once_per_instant(self, census):
        text = ("SELECT room, COUNT(*) AS n FROM Obs [Range Unbounded] "
                "GROUP BY room")
        assert self.per_instant(text, 4, census) == (1, 1, 1)
        assert self.per_instant(text, 64, census) == (1, 1, 1)

    def test_stream_output_once_per_arrival(self, census):
        text = "SELECT ISTREAM id, room FROM Obs [Range Unbounded]"
        assert self.per_instant(text, 4, census) == (4, 4, 4)
        assert self.per_instant(text, 64, census) == (64, 64, 64)


class TestOneRecordPerArrival:
    @pytest.fixture
    def conversions(self, monkeypatch):
        made, relabelled = [], []
        from_mapping = Record.from_mapping.__func__
        with_schema = Record.with_schema

        def counting_from_mapping(cls, schema, mapping):
            made.append(mapping)
            return from_mapping(cls, schema, mapping)

        def counting_with_schema(self, schema):
            relabelled.append(self)
            return with_schema(self, schema)

        monkeypatch.setattr(Record, "from_mapping",
                            classmethod(counting_from_mapping))
        monkeypatch.setattr(Record, "with_schema", counting_with_schema)
        return made, relabelled

    def per_arrival(self, readers, conversions):
        made, relabelled = conversions
        engine = make_engine()
        texts = ["SELECT DISTINCT room FROM Obs [Range 30]",
                 "SELECT COUNT(*) AS n FROM Obs [Rows 4]",
                 "SELECT id, room FROM Obs [Range 10] WHERE temp > 15",
                 "SELECT room, MAX(temp) AS hot FROM Obs [Range 20] "
                 "GROUP BY room"]
        for index in range(readers):
            engine.register_query(f"q{index}", texts[index % len(texts)])
        engine.ingest("Obs", row(1), 1)
        engine.run_until_idle()
        made.clear()
        relabelled.clear()
        engine.ingest("Obs", row(2), 2)
        engine.run_until_idle()
        arrival = {id(record) for record in relabelled}
        return len(made), len(relabelled) / readers, len(arrival)

    def test_one_conversion_however_many_readers(self, conversions):
        few = self.per_arrival(4, conversions)
        many = self.per_arrival(64, conversions)
        # One from_mapping at the door; each reader's one source relabels
        # the one shared Record once.
        assert few == many == (1, 1.0, 1)


class TestRootFoldHashes:
    """The root fold hashes each root delta at most three times, at any
    run length."""

    TICKS = 2000

    def test_hashes_per_root_delta_do_not_grow(self, monkeypatch):
        inside, hashes, folds = [False], [0], []
        original_hash = Record.__hash__
        original_fold = ContinuousQuery._apply_instant

        def counting_hash(self):
            if inside[0]:
                hashes[0] += 1
            return original_hash(self)

        def counting_fold(self, t, deltas):
            hashes[0] = 0
            inside[0] = True
            try:
                return original_fold(self, t, deltas)
            finally:
                inside[0] = False
                folds.append((t, hashes[0], len(deltas)))

        monkeypatch.setattr(Record, "__hash__", counting_hash)
        monkeypatch.setattr(ContinuousQuery, "_apply_instant",
                            counting_fold)
        engine = make_engine(batch_size=64)
        engine.register_query("q", GROUPED)
        for t in range(1, self.TICKS + 1):
            for n in range(10):
                engine.ingest("Obs", row(n, room=(t * 7 + n) % 20,
                                         temp=(t + n * 13) % 40), t)
            engine.run_until_idle()
        by_tick = {t: (count, deltas) for t, count, deltas in folds}
        for t in (50, self.TICKS):
            count, deltas = by_tick[t]
            assert deltas > 10
            assert count <= 3 * deltas


class TestIngestRefusesRowsThatDoNotFit:
    def test_missing_field_is_refused_before_anything_happens(self):
        engine = make_engine(recovery_interval=2)
        handle = engine.register_query("q", GROUPED)
        engine.ingest("Obs", row(1), 1)
        logged = len(engine._arrival_log)
        with pytest.raises(SchemaError, match="missing fields"):
            engine.ingest("Obs", {"id": 1, "room": 2}, 1)
        assert len(engine._arrival_log) == logged
        assert handle.pending == 1
        assert handle.metrics.ingested == 1
        engine.run_until_idle()

    def test_declared_types_are_checked(self):
        engine = make_engine(Schema(["id", "room", "temp"],
                                    [int, str, int]))
        handle = engine.register_query("q", GROUPED)
        with pytest.raises(SchemaError, match="expects int"):
            engine.ingest("Obs", row("one"), 1)
        with pytest.raises(SchemaError, match="expects int"):
            engine.ingest("Obs", Record(Schema(["id", "room", "temp"]),
                                        ("one", "lab", 20)), 1)
        assert handle.pending == 0

    def test_a_record_with_foreign_fields_is_refused(self):
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        with pytest.raises(SchemaError, match="does not fit"):
            engine.ingest("Obs", Record(Schema(["x", "y", "z"]),
                                        (1, "lab", 20)), 1)
        assert handle.pending == 0 and handle.metrics.ingested == 0

    def test_a_record_with_the_streams_fields_is_relabelled(self):
        engine = make_engine()
        handle = engine.register_query("q", "SELECT id FROM Obs [Now]")
        engine.ingest("Obs", Record(Schema(["id", "room", "temp"]),
                                    (7, "lab", 20)), 1)
        (queued,) = handle.queue._queue
        assert queued.value[1].schema is OBS
        engine.run_until_idle()
        assert [r["id"] for r in handle.store_state()] == [7]

    def test_the_epoch_is_checked_first(self):
        engine = make_engine()
        engine.register_query("q", GROUPED)
        with pytest.raises(TimeError):
            engine.ingest("Obs", {"id": 1}, -1)

    def test_a_crash_after_a_refused_row_recovers(self):
        def drive(engine, fuse=None):
            handle = engine.register_query("q", GROUPED)
            if fuse is not None:
                labels = [label for label, _ in handle.query.operators()]
                install_crash(handle.query, labels.index("AggregateOp"),
                              fuse)
            for t in range(1, 9):
                engine.ingest("Obs", row(t, "ab"[t % 2], 10 + t), t)
                if t == 3:
                    with pytest.raises(SchemaError):
                        engine.ingest("Obs", {"id": t, "room": "a"}, t)
                engine.run_until_idle()
            return handle

        clean = drive(make_engine())
        fuse = CrashFuse(at=12)
        engine = make_engine(recovery_interval=2)
        handle = drive(engine, fuse)
        assert fuse.fired == 1
        assert engine.recovery.attempts == 1
        assert handle.store_state() == clean.store_state()
        assert handle.query.as_relation() == clean.query.as_relation()


class TestRootFoldIsAtomic:
    def test_a_refused_retraction_changes_nothing(self, monkeypatch):
        engine = make_engine()
        handle = engine.register_query(
            "q", "SELECT ISTREAM id, room FROM Obs [Range 10]")
        engine.ingest("Obs", row(1), 1)
        engine.run_until_idle()
        query = handle.query
        state, log = query.current(), list(query._log)
        emissions = handle.emissions()
        history = list(handle.store_history().snapshots())
        root = query._root
        original = root.process
        ghost = Record(query.output_schema, (99, "ghost"))

        def torn(t, child_deltas):
            # A valid insert first, then a retraction of a row never held.
            return original(t, child_deltas) + [(ghost, -1)]

        monkeypatch.setattr(root, "process", torn)
        engine.ingest("Obs", row(2), 2)
        with pytest.raises(StateError, match="retraction of absent"):
            engine.run_until_idle()
        assert query.current() == state == log[-1][1]
        assert query._log == log
        assert query._last_instant == 1
        assert handle.emissions() == emissions
        assert list(handle.store_history().snapshots()) == history
        assert handle.store_state() == state


class TestStoreSharesTheLogsBags:
    def test_rollback_never_mutates_a_bag_the_store_holds(self):
        engine = make_engine(recovery_interval=3)
        handle = engine.register_query("q", GROUPED)
        labels = [label for label, _ in handle.query.operators()]
        fuse = CrashFuse(at=40)
        install_crash(handle.query, labels.index("AggregateOp"), fuse)
        seen: dict[int, tuple[Bag, Bag]] = {}
        for t in range(1, 30):
            for n in range(3):
                engine.ingest("Obs", row(n, "ab"[n % 2], 11 + t % 7), t)
            engine.run_until_idle()
            for _, bag in handle.store_history().snapshots():
                seen.setdefault(id(bag), (bag, bag.copy()))
        assert fuse.fired == 1 and engine.recovery.attempts == 1
        # Every Bag the Store ever held — the log's own, by reference —
        # still has the contents it was written with.
        for bag, contents in seen.values():
            assert bag == contents
        assert handle.store_history().at(29) is handle.query.state
