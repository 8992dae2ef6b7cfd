"""Multi-query plan sharing: SharedGroup, its shared operator DAG and
the DSMS sharing mode (the multi-query optimisation layer).  A private
query is a group of one, so a shared group is fed, serviced, batched
and checkpointed by the same path."""

from collections import Counter

import pytest

from repro.core import Changelog, PlanError, Schema, StateError
from repro.cql import ContinuousQuery, CQLEngine, executor
from repro.cql.executor import PhysicalOp, StreamSourceOp
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])

Q_COUNT = "SELECT COUNT(*) AS n FROM Obs [Range 100] WHERE temp > 20"
Q_IDS = "SELECT DISTINCT id FROM Obs [Range 100] WHERE temp > 20"

ROWS = [
    ({"id": 1, "room": "a", "temp": 35}, 0),
    ({"id": 2, "room": "a", "temp": 10}, 1),
    ({"id": 1, "room": "b", "temp": 22}, 3),
    ({"id": 3, "room": "b", "temp": 40}, 7),
]


def cql_engine():
    engine = CQLEngine()
    engine.register_stream("Obs", OBS)
    return engine


class TestSharedGroup:
    def test_common_prefix_compiles_once(self):
        engine = cql_engine()
        group = engine.shared_group()
        engine.register_query(Q_COUNT, shared=group)
        engine.register_query(Q_IDS, shared=group)
        # Both queries share window(select(stream_scan)): one memo hit,
        # and the distinct-operator count is below two private plans.
        assert group.shared_hits >= 1
        isolated_ops = sum(
            _count_ops(cql_engine().register_query(q)._root)
            for q in (Q_COUNT, Q_IDS))
        assert len(group.distinct_operators()) < isolated_ops

    def test_members_match_isolated_execution(self):
        engine = cql_engine()
        group = engine.shared_group()
        shared = [engine.register_query(q, shared=group)
                  for q in (Q_COUNT, Q_IDS)]
        isolated = [cql_engine().register_query(q)
                    for q in (Q_COUNT, Q_IDS)]
        for query in shared[:1] + isolated:
            query.start()
        for row, t in ROWS:
            # One push into the group feeds every member.
            shared[0].push("Obs", row, t)
            for query in isolated:
                query.push("Obs", row, t)
        for query in shared[:1] + isolated:
            query.advance_to(150)
            query.finish()
        for member, lone in zip(shared, isolated):
            assert member.as_relation() == lone.as_relation()
            assert _stream_list(member.emitted_stream()) == \
                _stream_list(lone.emitted_stream())

    def test_shared_operators_run_once_per_instant(self, monkeypatch):
        calls, outputs, received = Counter(), {}, {}
        fold = Changelog.commit

        def counted(process):
            def wrapper(op, t, child_deltas):
                calls[id(op)] += 1
                outputs[id(op)] = process(op, t, child_deltas)
                return outputs[id(op)]
            return wrapper

        def recorded_fold(log, t, deltas):
            received[id(log)] = deltas
            return fold(log, t, deltas)

        for cls in vars(executor).values():
            if isinstance(cls, type) and issubclass(cls, PhysicalOp) \
                    and "process" in vars(cls):
                monkeypatch.setattr(cls, "process", counted(cls.process))
        monkeypatch.setattr(Changelog, "commit", recorded_fold)
        engine = cql_engine()
        group = engine.shared_group()
        members = [engine.register_query(q, shared=group)
                   for q in (Q_COUNT, Q_IDS)]
        # Both members read one filtered window source.
        (source,) = [op for op in group.distinct_operators()
                     if isinstance(op, StreamSourceOp)]
        for member in members:
            assert source in [op for _, op in member.operators()]
        members[0].start()
        for row, t in ROWS:
            calls.clear()
            received.clear()
            members[0].push("Obs", row, t)
            assert calls == Counter(
                {id(op): 1 for op in group.distinct_operators()})
            for member in members:
                assert received[id(member.changelog)] \
                    is outputs[id(member._root)]

    def test_group_freezes_after_first_input(self):
        engine = cql_engine()
        group = engine.shared_group()
        query = engine.register_query(Q_COUNT, shared=group)
        query.start()
        query.push("Obs", {"id": 1, "room": "a", "temp": 30}, 1)
        with pytest.raises(PlanError, match="after data has flowed"):
            engine.register_query(Q_IDS, shared=group)

    def test_a_member_checkpoints_alone_only_without_peers(self):
        engine = cql_engine()
        group = engine.shared_group()
        lone = engine.register_query(Q_COUNT, shared=group)
        lone.start()
        # A group of one: the member's barrier is the whole group's.
        before = lone.current()
        payload = lone.snapshot()
        lone.push("Obs", {"id": 1, "room": "a", "temp": 30}, 1)
        assert [r["n"] for r in lone.current()] == [1]
        lone.restore(payload)
        assert lone.current() == before
        peer_group = engine.shared_group()
        members = [engine.register_query(q, shared=peer_group)
                   for q in (Q_COUNT, Q_IDS)]
        with pytest.raises(StateError, match="independently"):
            members[0].snapshot()
        with pytest.raises(StateError, match="independently"):
            members[1].restore(peer_group.snapshot())

    def test_state_counted_once(self):
        engine = cql_engine()
        group = engine.shared_group()
        for q in (Q_COUNT, Q_IDS):
            engine.register_query(q, shared=group).start()
        for row, t in ROWS:
            group.push_batch(t, {"Obs": [row]})
        lone = cql_engine().register_query(Q_COUNT)
        lone.start()
        for row, t in ROWS:
            lone.push("Obs", row, t)
        lone_state = lone.group.state_size()
        # The shared window buffer serves both members, so group state is
        # strictly below twice one query's state.
        assert group.state_size() < 2 * lone_state


def _count_ops(root):
    seen = set()
    stack = [root]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        stack.extend(op.children)
    return len(seen)


def _stream_list(stream):
    return list(zip(stream.timestamps(), stream.values()))


class TestDSMSSharing:
    def engine(self, sharing=True):
        engine = DSMSEngine(sharing=sharing)
        engine.register_stream("Obs", OBS)
        return engine

    def feed(self, engine):
        for row, t in ROWS:
            engine.ingest("Obs", row, t)
            engine.run_until_idle()
        engine.advance_time(150)

    def test_shared_store_matches_isolated(self):
        shared_engine = self.engine(sharing=True)
        s1 = shared_engine.register_query("q1", Q_COUNT)
        s2 = shared_engine.register_query("q2", Q_IDS)
        isolated_engine = self.engine(sharing=False)
        i1 = isolated_engine.register_query("q1", Q_COUNT)
        i2 = isolated_engine.register_query("q2", Q_IDS)
        self.feed(shared_engine)
        self.feed(isolated_engine)
        for shared, isolated in ((s1, i1), (s2, i2)):
            assert shared.store_state() == isolated.store_state()
            assert shared.emissions() == isolated.emissions()
        assert shared_engine.shared_subplan_hits >= 1

    def test_ingest_counts_the_readers_of_a_shared_unit(self):
        # Two members share one scheduling unit: ``ingest`` reports each
        # query that admitted the tuple, as it does for two isolated ones.
        counts = {}
        for sharing in (True, False):
            engine = self.engine(sharing=sharing)
            handles = [engine.register_query(name, text) for name, text
                       in (("q1", Q_COUNT), ("q2", Q_IDS))]
            assert len(engine._units) == (1 if sharing else 2)
            counts[sharing] = (
                [engine.ingest("Obs", row, t) for row, t in ROWS],
                [handle.metrics.ingested for handle in handles])
        assert counts[True] == counts[False] == ([2] * len(ROWS),
                                                 [len(ROWS)] * 2)

    def test_identical_queries_agree(self):
        engine = self.engine()
        q1 = engine.register_query("q1", Q_COUNT)
        q2 = engine.register_query("q2", Q_COUNT)
        self.feed(engine)
        assert q1.store_state() == q2.store_state()
        assert q1.emissions() == q2.emissions()

    def test_member_added_after_a_time_advance_is_throw_accounted(self):
        # The group caches its distinct window sources for eviction
        # accounting; a member joining later must invalidate the cache.
        engine = self.engine()
        engine.register_query("q1", Q_COUNT)
        engine.advance_time(1)   # no data yet: the group is still open
        engine.register_query("late", "SELECT id FROM Obs [Range 2]")
        engine.ingest("Obs", {"id": 1, "room": "a", "temp": 5}, 2)
        engine.run_until_idle()
        engine.advance_time(10)
        # temp 5 fails q1's pushed-down filter, so the only window that
        # ever held (and evicted) the tuple is the late member's.
        assert engine.throw.discarded == 1

    def test_cancel_of_shared_member_rejected(self):
        engine = self.engine()
        engine.register_query("q1", Q_COUNT)
        engine.register_query("q2", Q_IDS)
        with pytest.raises(PlanError, match="shared plan group"):
            engine.cancel_query("q1")

    def test_custom_policy_queries_stay_isolated(self):
        from repro.dsms.shedding import NoShedding
        engine = self.engine()
        engine.register_query("custom", Q_COUNT, shedder=NoShedding())
        assert engine.query("custom").query.group.memo is None
        engine.cancel_query("custom")  # isolated: cancellation allowed

    def test_an_explicit_batch_size_keeps_a_query_isolated(self):
        engine = self.engine()
        shared = engine.register_query("shared", Q_COUNT)
        capped = engine.register_query("capped", Q_IDS, batch_size=3)
        assert capped.query.group is not shared.query.group
        assert capped.query.group.memo is None
        assert capped.batch_size == 3
        for t in range(2):
            for ident in range(7):
                engine.ingest("Obs", {"id": ident, "room": "a",
                                      "temp": 30}, t)
        # 7 arrivals per instant at a cap of 3: three quanta per instant.
        assert engine.run_until_idle() == 2 + 2 * 3
        engine.cancel_query("capped")  # isolated: cancellation allowed

    def test_sharing_reduces_total_state(self):
        shared_engine = self.engine(sharing=True)
        isolated_engine = self.engine(sharing=False)
        for name, q in (("q1", Q_COUNT), ("q2", Q_IDS)):
            shared_engine.register_query(name, q)
            isolated_engine.register_query(name, q)
        self.feed(shared_engine)
        self.feed(isolated_engine)
        # advance_time(150) expires the windows; re-fill them.
        for engine in (shared_engine, isolated_engine):
            engine.ingest("Obs", {"id": 5, "room": "c", "temp": 50}, 160)
            engine.run_until_idle()
        assert shared_engine.total_state_size() < \
            isolated_engine.total_state_size()


Q_ROOMS = ("SELECT room, COUNT(*) AS n FROM Obs [Range 100] WHERE temp > 20 "
           "GROUP BY room")


class TestSharedGroupDrainsInstants:
    """Counts, not clocks: a shared group's quantum is its head instant,
    as an isolated relation-output query's is, and a stream-output
    member that batching would change clamps it to one tuple."""

    def run(self, sharing, queries=(Q_COUNT, Q_ROOMS)):
        engine = DSMSEngine(sharing=sharing)
        engine.register_stream("Obs", OBS)
        handles = [engine.register_query(f"q{index}", text)
                   for index, text in enumerate(queries)]
        quanta = 0
        for t in range(5):
            for ident in range(10):
                engine.ingest("Obs", {"id": ident, "room": "ab"[ident % 2],
                                      "temp": 21 + ident}, t)
            quanta += engine.run_until_idle()
        return quanta, handles

    def test_one_quantum_and_one_log_batch_per_instant(self):
        shared_quanta, shared = self.run(sharing=True)
        isolated_quanta, isolated = self.run(sharing=False)
        assert shared[0].query.group is shared[1].query.group
        assert shared[0].batch_size is None
        # One quantum per instant: for each of two units, or for the one.
        assert isolated_quanta == 10
        assert shared_quanta == 5
        for member, alone in zip(shared, isolated):
            assert len(member.query.changelog) \
                == len(alone.query.changelog) == 5
            assert member.metrics.processed == alone.metrics.processed == 50
            assert member.emissions() == alone.emissions()
            assert member.store_history() == alone.store_history()

    def test_a_stream_output_member_clamps_the_group(self):
        stream_query = "SELECT ISTREAM COUNT(*) AS n FROM Obs [Range 100]"
        quanta, (relation, stream) = self.run(
            sharing=True, queries=(Q_COUNT, stream_query))
        _, (relation_alone, stream_alone) = self.run(
            sharing=False, queries=(Q_COUNT, stream_query))
        assert relation.batch_size == stream.batch_size == 1
        assert quanta == 50
        assert stream.emissions() == stream_alone.emissions()
        assert relation.store_state() == relation_alone.store_state()


class TestCQLEnginePush:
    def test_a_shared_group_is_fed_once_per_push(self):
        engine = cql_engine()
        group = engine.shared_group()
        members = [engine.register_query(q, shared=group)
                   for q in (Q_COUNT, Q_IDS)]
        lone_engine = cql_engine()
        lone = lone_engine.register_query(Q_COUNT)
        for query in (members[0], lone):
            query.start()
        rows = [{"id": 1, "room": "a", "temp": 30},
                {"id": 2, "room": "b", "temp": 31}]
        for t, row in enumerate(rows, start=1):
            out = engine.push("Obs", row, t)
            assert sorted(out) == [0, 1]
            assert out[0] == lone_engine.push("Obs", row, t)[0]
        assert [r["n"] for r in members[0].current()] == [2]
        assert members[0].as_relation() == lone.as_relation()
        assert sorted(r["id"] for r in members[1].current()) == [1, 2]
