"""The hand-off from ``ingest`` to the window buffer is an instant.

Counts, not clocks: the queue keeps runs of one stream's
same-timestamp arrivals, a quantum takes an instant as ``(t, chunks)``
(one ``(stream, values)`` chunk per run), the query stages each stream's
rows into each source with one ``stage_many`` call, and routing goes
through a per-stream door built once instead of asking every unit about
every arrival.
Beside the counts, the queue semantics they must not change (FIFO runs,
batch caps, pressure re-arming) and what queue wait measures.
"""

import pytest

from repro import obs
from repro.core import Schema
from repro.cql import executor
from repro.cql.executor import SharedGroup, StreamSourceOp
from repro.dsms import DSMSEngine, InputQueue, NoShedding
from repro.dsms.engine import SchedulingUnit

OBS = Schema(["id", "room", "temp"])
GROUPED = ("SELECT room, COUNT(*) AS n, AVG(temp) AS mean FROM Obs "
           "[Range 20] WHERE temp > 10 GROUP BY room")


def make_engine(**kwargs):
    engine = DSMSEngine(**kwargs)
    engine.register_stream("Obs", OBS)
    engine.register_stream("Alarm", Schema(["id", "level"]))
    return engine


def row(ident, room="lab", temp=20):
    return {"id": ident, "room": room, "temp": temp}


class TestRuns:
    def test_poll_instant_splits_a_mixed_stream_run_in_arrival_order(self):
        queue = InputQueue(capacity=16)
        arrivals = [("Obs", 1), ("Alarm", 2), ("Obs", 3), ("Alarm", 4),
                    ("Obs", 5)]
        for stream, value in arrivals:
            queue.offer(value, 7, stream)
        queue.offer(6, 8, "Obs")
        # Interleaved streams stay separate runs, taken in arrival order.
        assert queue.poll_instant(2) == (7, [("Obs", [1]), ("Alarm", [2])])
        assert queue.poll_instant(2) == (7, [("Obs", [3]), ("Alarm", [4])])
        assert queue.poll_instant(2) == (7, [("Obs", [5])])
        assert queue.poll_instant(2) == (8, [("Obs", [6])])
        assert queue.poll_instant(2) is None
        assert len(queue) == 0

    def test_one_stream_per_run_and_one_wait_range_per_chunk(self):
        queue = InputQueue(capacity=16)
        for stream, value in (("Obs", 1), ("Obs", 2), ("Alarm", 3),
                              ("Obs", 4)):
            queue.offer(value, 7, stream)
        assert queue.poll_instant() == (
            7, [("Obs", [1, 2]), ("Alarm", [3]), ("Obs", [4])])
        assert queue.polled_waits == [range(0, 2), range(2, 3), range(3, 4)]

    def test_runs_stay_fifo_and_are_never_merged_out_of_order(self):
        queue = InputQueue(capacity=16)
        for value, t in (("a", 1), ("b", 2), ("c", 1)):
            queue.offer(value, t, "S")
        assert [queue.poll_instant() for _ in range(4)] == [
            (1, [("S", ["a"])]), (2, [("S", ["b"])]), (1, [("S", ["c"])]),
            None]

    def test_a_run_split_by_a_poll_drains_as_one_instant(self):
        queue = InputQueue(capacity=16)
        queue.offer("a", 1, "S")
        queue.offer("b", 2, "S")
        assert queue.poll_instant() == (1, [("S", ["a"])])
        queue.offer("c", 2, "S")  # a new run, next to b's
        assert queue.poll_instant() == (2, [("S", ["b"]), ("S", ["c"])])

    def test_a_zero_limit_takes_nothing(self):
        queue = InputQueue(capacity=16)
        queue.offer("a", 1, "S")
        assert queue.poll_instant(0) is None and len(queue) == 1
        assert queue.clear() == 1 and queue.poll_instant() is None


class TestPressureRearm:
    @pytest.mark.parametrize("stamps", [[0] * 9, list(range(9))],
                             ids=["one-run", "nine-runs"])
    def test_one_episode_counts_once_however_the_queue_is_polled(self,
                                                                 stamps):
        queue = InputQueue(capacity=10)  # pressure mark at 8
        for i, t in enumerate(stamps):
            queue.offer(i, t, "S")
        queue.poll_instant(1)  # depth 8: still at the mark, still pressured
        queue.offer(9, 0, "S")
        assert queue.pressured
        assert queue.pressure_events == 1

    def test_rearms_below_the_mark(self):
        queue = InputQueue(capacity=10)
        for i in range(9):
            queue.offer(i, 0, "S")
        queue.poll_instant(2)
        assert not queue.pressured
        queue.offer(9, 0, "S")
        queue.offer(10, 0, "S")
        assert queue.pressure_events == 2


class TestQueueWait:
    """A tuple's wait is the number of tuples queued ahead of it when it
    was admitted."""

    def test_a_backlog_waits_its_depth(self):
        engine = make_engine()
        handles = [engine.register_query(f"q{i}", GROUPED, batch_size=8)
                   for i in range(2)]
        for ident in range(100):
            engine.ingest("Obs", row(ident), 1 + ident // 10)
        engine.run_until_idle()
        for handle in handles:
            wait = handle.metrics.queue_wait
            assert wait.count == 100
            assert handle.metrics.as_dict()["mean_queue_wait"] == 49.5
            assert (wait.min, wait.max) == (0, 99)

    def test_a_shared_member_waits_only_for_the_streams_it_reads(self):
        engine = make_engine(sharing=True)
        obs_reader = engine.register_query("obs", GROUPED)
        alarm_reader = engine.register_query(
            "alarm", "SELECT id FROM Alarm [Range 5]")
        assert obs_reader.unit is alarm_reader.unit
        assert obs_reader.batch_size is None  # one quantum: the instant
        for ident in range(6):
            if ident % 3 == 2:
                engine.ingest("Alarm", {"id": ident, "level": 1}, 1)
            else:
                engine.ingest("Obs", row(ident), 1)
        engine.run_until_idle()
        # Obs arrivals were admitted at depths 0, 1, 3 and 4; Alarm's at
        # 2 and 5.
        for handle, waits in ((obs_reader, [0, 1, 3, 4]),
                              (alarm_reader, [2, 5])):
            wait = handle.metrics.queue_wait
            assert handle.metrics.processed == wait.count == len(waits)
            assert (wait.min, wait.max) == (min(waits), max(waits))
            assert wait.total == sum(waits)

    def test_draining_after_every_arrival_waits_nothing(self):
        engine = make_engine()
        handle = engine.register_query("q", GROUPED)
        for ident in range(20):
            engine.ingest("Obs", row(ident), 1 + ident // 3)
            engine.run_until_idle()
        wait = handle.metrics.queue_wait
        assert wait.count == 20 and wait.max == 0

    def test_the_histogram_observes_every_wait(self):
        obs.enable()
        engine = make_engine()
        engine.register_query("q", GROUPED, batch_size=4)
        for ident in range(10):
            engine.ingest("Obs", row(ident), 1)
        engine.run_until_idle()
        hist = obs.get_registry().get("dsms.queue.wait", query="q")
        assert hist.count == 10 and hist.total == sum(range(10))

    def test_checkpoints_carry_no_sequence_numbers(self):
        engine = make_engine()
        engine.register_query("q", GROUPED)
        assert set(engine.snapshot()["queries"]["q"]) == {
            "agenda", "log", "last_instant", "deltas_processed",
            "operators"}


class TestOneStagingPerSource:
    @pytest.fixture
    def census(self, monkeypatch):
        # The DSMS feeds the query's group's one instant path, ``_feed``
        # — what ``push_batch`` calls once it has validated its rows —
        # with the values tuples ``ingest`` validated.
        counts = {"push_batch": 0, "stage_many": 0}
        feed = SharedGroup._feed
        stage_many = StreamSourceOp.stage_many

        def counted_feed(self, t, arrivals):
            counts["push_batch"] += 1
            return feed(self, t, arrivals)

        def counted_stage_many(self, rows, t):
            counts["stage_many"] += 1
            return stage_many(self, rows, t)

        monkeypatch.setattr(SharedGroup, "_feed", counted_feed)
        monkeypatch.setattr(StreamSourceOp, "stage_many", counted_stage_many)
        return counts

    @pytest.mark.parametrize("arrivals", [4, 64])
    def test_one_push_batch_and_one_stage_many_per_source(self, census,
                                                          arrivals):
        engine = make_engine(batch_size=64)
        handle = engine.register_query(
            "q", "SELECT O.room, COUNT(*) AS n FROM Obs O [Range 20], "
                 "Obs P [Rows 5] WHERE O.room = P.room GROUP BY O.room")
        sources = len(handle.query._stream_sources["Obs"])
        assert sources == 2
        for ident in range(arrivals):
            engine.ingest("Obs", row(ident, f"r{ident % 3}"), 1)
        census.update(push_batch=0, stage_many=0)
        assert engine.step()
        assert not engine.step()
        assert census["push_batch"] == 1
        assert census["stage_many"] == sources
        assert handle.metrics.processed == arrivals


class TestRouting:
    @pytest.fixture
    def asked(self, monkeypatch):
        calls = []
        reads_stream = SchedulingUnit.reads_stream

        def counted(self, name):
            calls.append(name)
            return reads_stream(self, name)

        monkeypatch.setattr(SchedulingUnit, "reads_stream", counted)
        return calls

    def test_units_are_asked_once_per_stream_not_per_arrival(self, asked):
        engine = make_engine()
        for i in range(16):
            engine.register_query(f"q{i}", GROUPED)
        for ident in range(10):
            assert engine.ingest("Obs", row(ident), 1) == 16
        assert len(asked) == 16

    def test_the_reader_list_follows_register_and_cancel(self, asked):
        engine = make_engine()
        engine.register_query("obs", GROUPED)
        assert engine.ingest("Obs", row(1), 1) == 1
        alarm = engine.register_query(
            "alarm", "SELECT ISTREAM id FROM Alarm [Now]")
        engine.register_query("more", GROUPED)
        assert engine.ingest("Obs", row(2), 1) == 2
        assert engine.ingest("Alarm", {"id": 1, "level": 3}, 1) == 1
        engine.cancel_query("obs")
        assert engine.ingest("Obs", row(3), 1) == 1
        engine.run_until_idle()
        assert alarm.metrics.processed == 1

    def test_shared_group_members_join_the_reader_list(self):
        engine = make_engine(sharing=True)
        engine.register_query("a", GROUPED)
        assert engine.ingest("Alarm", {"id": 1, "level": 3}, 1) == 0
        engine.register_query("b", "SELECT ISTREAM id FROM Alarm [Now]")
        assert engine.ingest("Alarm", {"id": 2, "level": 3}, 1) == 1
        assert engine.ingest("Obs", row(1), 1) == 1


class TestNoSheddingIsNotConsulted:
    def test_the_policy_is_never_called_but_its_books_are_kept(
            self, monkeypatch):
        def refuse(*args):
            raise AssertionError("NoShedding.admit was called")

        monkeypatch.setattr(NoShedding, "admit", refuse)
        engine = make_engine(queue_capacity=2)
        handle = engine.register_query("q", GROUPED)
        for ident in range(3):
            engine.ingest("Obs", row(ident), 1)
        assert handle.shedder.admitted == 3
        assert handle.shedder.queue_dropped == 1
        assert handle.shedder.shed_fraction == pytest.approx(1 / 3)


class TestQuantumBooks:
    """What a quantum settles after its group instant.  It sums its
    sources' evictions once and passes the growth since the last quantum
    through the Throw; a restore, which rolls the sources' counts back,
    re-reads the mark, so the replayed evictions pass through again.  And
    it counts each member's new emissions once, without copying them."""

    WINDOW = "SELECT room, COUNT(*) AS n FROM Obs [Range 2] GROUP BY room"

    def feed(self, engine, ticks):
        for t in ticks:
            for ident in range(3):
                engine.ingest("Obs", row(ident, "ab"[ident % 2]), t)
            engine.run_until_idle()

    def test_evictions_pass_the_throw_once_and_again_after_a_restore(
            self, monkeypatch):
        engine = make_engine()
        handle = engine.register_query("q", self.WINDOW)
        (source,) = handle.query._stream_sources["Obs"]
        sums = [0]
        evictions = SchedulingUnit._evictions

        def counted(self):
            sums[0] += 1
            return evictions(self)

        monkeypatch.setattr(SchedulingUnit, "_evictions", counted)
        self.feed(engine, range(1, 4))
        assert sums[0] == 3  # one per quantum
        barrier = engine.snapshot()
        held, thrown = source.evicted, engine.throw.discarded
        assert thrown == held > 0
        self.feed(engine, range(4, 7))
        passed = engine.throw.discarded - thrown
        assert passed == source.evicted - held == 9
        engine.restore(barrier)
        assert source.evicted == held
        self.feed(engine, range(4, 7))
        assert engine.throw.discarded == thrown + 2 * passed

    def test_each_emission_is_counted_once(self):
        # A quantum counts a member's new emissions without copying them;
        # across quanta and advances each is counted exactly once.
        engine = make_engine()
        handles = [engine.register_query(
                       "q", self.WINDOW.replace("SELECT", "SELECT ISTREAM")),
                   engine.register_query(
                       "hot", "SELECT ISTREAM id FROM Obs [Now] "
                              "WHERE temp > 10")]
        self.feed(engine, range(1, 5))
        engine.advance_time(9)
        self.feed(engine, range(9, 12))
        for handle in handles:
            assert handle.metrics.emitted == len(handle.emissions()) > 3
