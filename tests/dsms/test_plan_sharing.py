"""Multi-query plan sharing: SharedGroup, its shared operator DAG and
the DSMS sharing mode (the multi-query optimisation layer)."""

from collections import Counter

import pytest

from repro.core import PlanError, Schema
from repro.cql import ContinuousQuery, CQLEngine
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
        process_instant = StreamSourceOp.process_instant
        apply = PhysicalOp.apply
        fold = ContinuousQuery._apply_instant

        def counted_instant(op, t):
            calls[id(op)] += 1
            return process_instant(op, t)

        def counted_apply(op, t, child_deltas, child_active):
            calls[id(op)] += 1
            outputs[id(op)] = apply(op, t, child_deltas, child_active)
            return outputs[id(op)]

        def recorded_fold(query, t, deltas):
            received[id(query)] = deltas
            return fold(query, t, deltas)

        monkeypatch.setattr(StreamSourceOp, "process_instant",
                            counted_instant)
        monkeypatch.setattr(PhysicalOp, "apply", counted_apply)
        monkeypatch.setattr(ContinuousQuery, "_apply_instant", recorded_fold)
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
                deltas, _active = outputs[id(member._root)]
                assert received[id(member)] is deltas

    def test_group_freezes_after_first_input(self):
        engine = cql_engine()
        group = engine.shared_group()
        query = engine.register_query(Q_COUNT, shared=group)
        query.start()
        query.push("Obs", {"id": 1, "room": "a", "temp": 30}, 1)
        with pytest.raises(PlanError, match="after data has flowed"):
            engine.register_query(Q_IDS, shared=group)

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
        lone_state = sum(op.state_size
                         for _, op in _stateful(lone._root))
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


def _stateful(root):
    from repro.dsms.engine import _stateful_ops
    return _stateful_ops(root)


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
        assert engine._group_handle is None
        engine.cancel_query("custom")  # isolated: cancellation allowed

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
