"""Insert-only inputs run on the one join and the one distinct.

Over unbounded windows every delta a join side or a DISTINCT sees is an
insert (Barbarà's monotone case, §3.2); the multiplicity-counted
``JoinOp`` and ``DistinctOp`` take it as the special case of their delta
rules.  Each query must equal the denotational reference, survive a
crash at every operator position with restore-and-replay, and a live
1→3→1 rescale must match a never-rescaled run: the rescale splits each
join side's ``{values: multiplicity}`` entries by key.  A cross join has
no key to partition on, so its rescale is refused.
"""

import random

import pytest

from repro.chaos import CrashFuse, RecoveryManager, install_crash, \
    run_query_with_recovery
from repro.core import PlanError, Stream
from repro.cql import reference_evaluate
from repro.cql.executor import DistinctOp, JoinOp, StreamSourceOp, \
    instant_batches
from repro.difftest.generators import ALERTS_SCHEMA, OBS_SCHEMA, \
    build_engine
from repro.runtime.rescale import rescale

QUERIES = {
    "stream-join": ("SELECT O.room, A.level FROM Obs O [Range Unbounded], "
                    "Alerts A [Range Unbounded] WHERE O.id = A.id",
                    {JoinOp}),
    "cross-join": ("SELECT O.id, A.level FROM Obs O [Range Unbounded], "
                   "Alerts A [Range Unbounded] WHERE O.temp > A.level",
                   {JoinOp}),
    "distinct": ("SELECT DISTINCT O.room, A.level "
                 "FROM Obs O [Range Unbounded], Alerts A [Range Unbounded] "
                 "WHERE O.id = A.id", {JoinOp, DistinctOp}),
}


def streams():
    """Repeating ids, rooms and levels (duplicate rows for DISTINCT to
    fold), NULL keys, and several arrivals per instant."""
    rng = random.Random(0)
    obs = [({"id": rng.choice([0, 1, 2, 3, None]),
             "room": rng.choice("ab"), "temp": rng.randrange(4)}, t // 2)
           for t in range(24)]
    alerts = [({"id": rng.choice([0, 1, 2, None]),
                "level": rng.randrange(3)}, t) for t in range(12)]
    return {"Obs": Stream.of_records(OBS_SCHEMA, obs),
            "Alerts": Stream.of_records(ALERTS_SCHEMA, alerts)}


def outputs(query):
    return [(t, sorted(bag, key=repr))
            for t, bag in query.as_relation().snapshots()]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_insert_only_inputs_match_reference_crash_and_rescale(name):
    text, compiled = QUERIES[name]
    engine = build_engine()
    clean = engine.register_query(text)
    clean.run_recorded(streams())
    assert {type(op) for _, op in clean.operators()} == {
        StreamSourceOp, *compiled}
    assert clean.as_relation() == reference_evaluate(
        clean.plan, engine.catalog, streams())
    expected = outputs(clean)

    for position in range(len(clean.operators())):
        query = build_engine().register_query(text)
        fuse = CrashFuse(at=5)
        label = install_crash(query, position, fuse)
        manager = RecoveryManager(query, interval=2)
        run_query_with_recovery(query, streams(), manager)
        assert fuse.fired == manager.attempts == 1, label
        assert outputs(query) == expected, label

    query = build_engine().register_query(text)
    query.start()
    reports = []
    for position, (t, arrivals) in enumerate(instant_batches(streams())):
        if position in (3, 7):
            if name == "cross-join":
                # No key to partition on: refused, and the query runs on.
                with pytest.raises(PlanError, match="not key-partitionable"):
                    rescale(query, 3)
            else:
                reports.append(rescale(query, 3 if position == 3 else 1))
        query.push_batch(t, arrivals)
    query.finish()
    assert outputs(query) == expected
    assert [r.parallelism_to for r in reports] == (
        [] if name == "cross-join" else [3, 1])
    assert all(r.migrated_entries for r in reports)
