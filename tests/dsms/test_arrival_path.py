"""The per-arrival path: one coercion per arrival, no Bag per instant.

Counts, not clocks: what the engine builds, copies and hashes per
arrival and per service quantum is counted directly and must not depend
on the fleet size, on how long the engine has run or on the size of the
answer.  An arrival is validated into a values tuple once, at the door,
and stays a tuple through the queue, the operators and the query's
change-log: a quantum builds and hashes no Record, and a fold commits
its net change and builds no Bag.  Rows become Records only when read.
Beside the counts, the regressions for what converting once and folding
all or nothing fixed: a row that does not fit its stream is refused at
``ingest`` (before anything is logged), and a refused root fold changes
nothing.
"""

import pytest

import repro.core.records as records_module
from repro.chaos import CrashFuse, install_crash
from repro.core import Record, Schema, SchemaError, StateError, TimeError
from repro.core.relation import Bag, labelled
from repro.cql import CQLEngine
from repro.cql.executor import ContinuousQuery, SharedGroup, StreamSourceOp
from repro.dsms import DSMSEngine

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
    """Every Bag built — a copy, or a read's labelled answer — in order."""
    copies = []
    original = Bag.__init__

    def counting(self, items=()):
        copies.append(self)
        original(self, items)

    monkeypatch.setattr(Bag, "__init__", counting)
    return copies


@pytest.fixture
def records_built(monkeypatch):
    """A count of every Record built, labelled or constructed."""
    built = [0]
    new, init = records_module._new, Record.__init__

    def counting_new(cls):
        built[0] += 1
        return new(cls)

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(records_module, "_new", counting_new)
    monkeypatch.setattr(Record, "__init__", counting_init)
    return built


class TestNoBagCopyPerInstant:
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

    def test_no_copy_when_the_state_changes(self, bag_copies):
        engine, handle = self.warm()
        engine.ingest("Obs", row(9, "hall"), 3)
        logged = len(handle.query.changelog)
        bag_copies.clear()
        assert engine.step()
        assert bag_copies == []
        # The fold is one batch in the query's log, which is the Store's.
        assert len(handle.query.changelog) == logged + 1
        assert engine.store.current("q") == labelled(
            handle.query.changelog.contents, handle.query.output_schema)
        assert handle.store_history().at(3) == handle.store_state()

    def test_no_copy_when_the_state_holds(self, bag_copies):
        engine, handle = self.warm()
        engine.ingest("Obs", row(9, "hall", temp=5), 3)  # filtered out
        logged = list(handle.store_history().snapshots())
        batches = len(handle.query.changelog)
        bag_copies.clear()
        assert engine.step()
        assert bag_copies == []
        assert len(handle.query.changelog) == batches
        assert list(handle.store_history().snapshots()) == logged

    def test_store_reads_copy_nothing_but_the_answer(self, bag_copies):
        engine, handle = self.warm()
        for t in range(3, 8):
            engine.ingest("Obs", row(t, "lab"), t)
        engine.run_until_idle()
        engine.advance_time(100)
        bag_copies.clear()
        assert handle.store_state() == engine.store.current("q")
        assert len(bag_copies) == 2
        # A history read builds one Bag per change point, from one working
        # copy of the answer, and only then.
        bag_copies.clear()
        history = engine.store.history("q")
        assert len(bag_copies) == len(history) + 1 > 3
        assert handle.store_state() == history.latest()

    def test_no_copy_per_batched_instant(self, bag_copies):
        engine, handle = self.warm(batch_size=8)
        for ident in range(8):
            engine.ingest("Obs", row(ident, f"r{ident}"), 3)
        bag_copies.clear()
        assert engine.step()
        assert handle.metrics.processed == 14
        assert bag_copies == []


class TestOneQuantumPerInstant:
    """On a default engine a relation-output query evaluates each instant
    once, however many arrivals share it; a stream-output query still
    does so once per arrival, one change-log batch per fold.  Neither
    copies a Bag, and either way the history read from the change-log —
    the Store's — gains one change point per instant."""

    @pytest.fixture
    def census(self, monkeypatch, bag_copies):
        counts = {"evaluations": 0}
        evaluate = SharedGroup._process_instant

        def counted_evaluate(self, t):
            counts["evaluations"] += 1
            return evaluate(self, t)

        monkeypatch.setattr(SharedGroup, "_process_instant",
                            counted_evaluate)

        def read():
            return counts["evaluations"], len(bag_copies)

        def clear():
            counts.update(evaluations=0)
            bag_copies.clear()

        return read, clear

    def per_instant(self, text, arrivals, census):
        read, clear = census
        engine = make_engine()
        handle = engine.register_query("q", text)
        engine.ingest("Obs", row(0), 1)
        engine.run_until_idle()
        logged = len(handle.store_history())
        batches = len(handle.query.changelog)
        clear()
        for ident in range(1, arrivals + 1):
            engine.ingest("Obs", row(ident, f"r{ident}"), 2)
        engine.run_until_idle()
        counts = read()
        return (*counts, len(handle.query.changelog) - batches,
                len(handle.store_history()) - logged)

    def test_relation_output_once_per_instant(self, census):
        text = ("SELECT room, COUNT(*) AS n FROM Obs [Range Unbounded] "
                "GROUP BY room")
        assert self.per_instant(text, 4, census) == (1, 0, 1, 1)
        assert self.per_instant(text, 64, census) == (1, 0, 1, 1)

    def test_stream_output_once_per_arrival(self, census):
        text = "SELECT ISTREAM id, room FROM Obs [Range Unbounded]"
        assert self.per_instant(text, 4, census) == (4, 0, 4, 1)
        assert self.per_instant(text, 64, census) == (64, 0, 64, 1)


class TestFoldCostFollowsTheChange:
    """One changed answer row per instant: a fold copies no Bag and logs
    the same row slots whether the answer holds 50 or 5 000 rows."""

    QUERY = ("SELECT room, COUNT(*) AS n FROM Obs [Range Unbounded] "
             "GROUP BY room")

    def per_fold(self, rooms, bag_copies):
        engine = CQLEngine()
        engine.register_stream("Obs", OBS)
        query = engine.register_query(self.QUERY)
        query.start()
        query.push_batch(1, {"Obs": [row(n, n) for n in range(rooms)]})
        assert len(query.current()) == rooms
        folds = []
        for t in range(2, 12):
            bag_copies.clear()
            query.push_batch(t, {"Obs": [row(t, t % rooms)]})
            # The one changed group: its old row out, its new row in.
            folds.append((len(bag_copies),
                          len(query.changelog.between(t - 1, t))))
        return folds

    def test_a_fold_costs_the_change_not_the_answer(self, bag_copies):
        assert self.per_fold(50, bag_copies) \
            == self.per_fold(5_000, bag_copies) == [(0, 2)] * 10


class TestOneCoercionPerArrival:
    @pytest.fixture
    def conversions(self, monkeypatch, records_built):
        coerced, staged = [], []
        coerce, stage_many = Schema.coerce, StreamSourceOp.stage_many

        def counting_coerce(self, row):
            coerced.append(row)
            return coerce(self, row)

        def counting_stage_many(self, rows, t):
            staged.extend(rows)
            return stage_many(self, rows, t)

        monkeypatch.setattr(Schema, "coerce", counting_coerce)
        monkeypatch.setattr(StreamSourceOp, "stage_many",
                            counting_stage_many)
        return coerced, staged, records_built

    def per_arrival(self, readers, conversions):
        coerced, staged, records_built = conversions
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
        coerced.clear()
        staged.clear()
        records_built[0] = 0
        engine.ingest("Obs", row(2), 2)
        engine.run_until_idle()
        arrival = {id(values) for values in staged}
        return (len(coerced), len(staged) / readers, len(arrival),
                records_built[0])

    def test_one_conversion_however_many_readers(self, conversions):
        few = self.per_arrival(4, conversions)
        many = self.per_arrival(64, conversions)
        # One coercion at the door; each reader's one source stages the
        # one shared values tuple, and no reader builds a Record.
        assert few == many == (1, 1.0, 1, 0)


class TestNoRecordHashedPerQuantum:
    """A service quantum works on values tuples: it hashes no Record at
    any run length, while its root fold nets real deltas."""

    TICKS = 2000

    def test_no_record_hash_in_a_quantum_at_any_run_length(
            self, monkeypatch):
        hashes, folded = [0], [0]
        original_hash = Record.__hash__
        original_fold = ContinuousQuery._apply_instant

        def counting_hash(self):
            hashes[0] += 1
            return original_hash(self)

        def counting_fold(self, t, deltas):
            folded[0] += len(deltas)
            return original_fold(self, t, deltas)

        monkeypatch.setattr(Record, "__hash__", counting_hash)
        monkeypatch.setattr(ContinuousQuery, "_apply_instant",
                            counting_fold)
        engine = make_engine(batch_size=64)
        engine.register_query("q", GROUPED)
        quanta = {}
        for t in range(1, self.TICKS + 1):
            for n in range(10):
                engine.ingest("Obs", row(n, room=(t * 7 + n) % 20,
                                         temp=(t + n * 13) % 40), t)
            hashes[0] = folded[0] = 0
            engine.run_until_idle()
            quanta[t] = (hashes[0], folded[0])
        for t in (50, self.TICKS):
            hashed, deltas = quanta[t]
            assert deltas > 10
            assert hashed == 0


class TestAStoreReadLabelsEachRowOnce:
    """A read labels the answer's values tuples as Records: one Record
    per distinct answer row, however long the engine has run."""

    def test_one_record_per_distinct_row_at_tick_50_and_2000(
            self, records_built):
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        reads = {}
        for t in range(1, 2001):
            for n in range(10):
                engine.ingest("Obs", row(n, room=(t * 7 + n) % 20,
                                         temp=(t + n * 13) % 40), t)
            engine.run_until_idle()
            if t in (50, 2000):
                records_built[0] = 0
                answer = engine.store.current("q")
                reads[t] = (records_built[0], answer.support_size)
                assert {r.schema for r in answer} \
                    == {handle.query.output_schema}
        assert reads[50] == reads[2000] == (20, 20)


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
        # Its values are checked and queued as a plain tuple; the answer
        # labels them with the query's own field names.
        engine = make_engine()
        handle = engine.register_query("q", "SELECT id FROM Obs [Now]")
        engine.ingest("Obs", Record(Schema(["id", "room", "temp"]),
                                    (7, "lab", 20)), 1)
        assert len(handle.queue) == 1
        t, [(stream, values)] = handle.queue.poll_instant()
        assert type(values) is tuple and values == (7, "lab", 20)
        handle.queue.offer((stream, values), t)
        engine.run_until_idle()
        (answer,) = handle.store_state()
        assert answer["id"] == 7
        assert answer.schema is handle.query.output_schema

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
        state = query.current()
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
        assert query.current() == state == history[-1][1]
        assert query.group._cursor == 1
        assert handle.emissions() == emissions
        assert list(handle.store_history().snapshots()) == history
        assert handle.store_state() == state


class TestARollbackLeavesReadHistories:
    def test_rollback_never_changes_a_history_already_read(self):
        engine = make_engine(recovery_interval=3)
        handle = engine.register_query("q", GROUPED)
        labels = [label for label, _ in handle.query.operators()]
        fuse = CrashFuse(at=40)
        install_crash(handle.query, labels.index("AggregateOp"), fuse)
        seen: list[tuple[Bag, Bag]] = []
        for t in range(1, 30):
            for n in range(3):
                engine.ingest("Obs", row(n, "ab"[n % 2], 11 + t % 7), t)
            engine.run_until_idle()
            seen.extend((bag, bag.copy()) for _, bag
                        in handle.store_history().snapshots())
        assert fuse.fired == 1 and engine.recovery.attempts == 1
        # Every Bag a history read returned still has the contents it
        # was read with: the rollback changed the log, not the reads.
        for bag, contents in seen:
            assert bag == contents
        assert handle.store_history().at(29) == handle.query.current()
