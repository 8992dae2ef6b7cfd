"""Counts, not clocks: a DSMS checkpoint costs what changed since the last.

The engine checkpoints (``DSMSEngine.snapshot``) the operator keys mutated
since the previous barrier and offsets into its append-only histories, so
for the same delta the checkpoint must write the same payload — the same
containers, the same records, the same bytes — and make the same calls,
whether the run is at tick 50 or at tick 2 000 and whether the static
``Person`` relation the join probes holds 500 or 50 000 rows.  The bytes
are the engine's own tally (``barrier_bytes``: what the barrier copied),
and sizing a checkpoint taken through a ``RecoveryManager`` walks nothing
else — not even an answer the Store holds by reference.  A restore rolls
back only the keys dirtied since the barrier: it must cost the same at
every run length and relation size, and grow with the ticks since the
barrier.  An engine hosting dynamic tables — one fed by a stream, one
over a base table — checkpoints them the same way: changelog offsets and
the view operators' changed keys.

The input is periodic (ticks of one parity carry identical arrivals), so
the same 8-tick delta really is the same at every tick.
"""

import gc
import sys
from collections import Counter, deque

import pytest

from repro.chaos.recovery import RecoveryManager
from repro.core import Bag, Record, Schema
from repro.dsms import DSMSEngine

OBS = Schema(["id", "room", "temp"])
BADGE = Schema(["id", "door"])
PERSON = Schema(["id", "name"])
TEXT = ("SELECT O.room, B.door, P.name "
        "FROM Obs O [Range 6], Badge B [Range 6], Person P "
        "WHERE O.id = B.id AND B.id = P.id")
#: Stamps are BASE + tick: five digits at every tick used here.
BASE = 10_000
DELTA = 8


def arrivals(tick):
    phase = tick % 2
    return ([("Obs", {"id": (3 * phase + n) % 8, "room": n, "temp": n})
             for n in range(3)]
            + [("Badge", {"id": (5 * phase + n) % 8, "door": n})
               for n in range(3)])


def feed(engine, ticks):
    hosts_doors = "doors" in engine.views.table_names()
    for tick in ticks:
        if hosts_doors:
            engine.views.apply("doors", inserts=[{"door": tick % 2}],
                               at=BASE + tick)
        for stream, row in arrivals(tick):
            engine.ingest(stream, row, BASE + tick)
        engine.run_until_idle()


def measured(fn):
    """Calls made (Python and builtin) while ``fn`` runs, and its result."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def census(payload):
    """Containers, records and integer scalars held in a payload."""
    counts = Counter()

    def visit(value):
        if isinstance(value, Record):
            counts["records"] += 1
        elif isinstance(value, bool) or value is None:
            return
        elif isinstance(value, int):
            counts["ints"] += 1
        elif isinstance(value, Bag):
            counts["containers"] += 1
            for record, _ in value.items():
                visit(record)
        elif isinstance(value, dict):
            counts["containers"] += 1
            for key, item in value.items():
                visit(key)
                visit(item)
        elif isinstance(value, (list, tuple, set, frozenset, deque)):
            counts["containers"] += 1
            for item in value:
                visit(item)

    visit(payload)
    return counts


class Run:
    """One engine fed ``ticks`` ticks, checkpointed by a RecoveryManager
    over the last DELTA.  With ``answer``, a second query returns the
    static Person relation, which the Store then holds whole as that
    query's answer.  With ``views``, the engine also hosts a dynamic
    table fed by the Obs stream and one over a ``doors`` base table that
    every tick writes."""

    def __init__(self, ticks, persons, answer=False, views=False):
        engine = self.engine = DSMSEngine()
        engine.register_stream("Obs", OBS)
        engine.register_stream("Badge", BADGE)
        engine.register_relation(
            "Person", PERSON,
            [{"id": i, "name": f"p{i}"} for i in range(persons)])
        self.handle = engine.register_query("join", TEXT)
        if answer:
            engine.register_query("people", "SELECT * FROM Person")
        if views:
            engine.create_dynamic_table(
                "CREATE DYNAMIC TABLE by_room TARGET_LAG = 0 AS SELECT "
                "room, COUNT(*) AS n, MAX(temp) AS hot FROM Obs "
                "GROUP BY room EMIT CHANGES")
            engine.views.create_table("doors", Schema(["door"]))
            engine.create_dynamic_table(
                "CREATE DYNAMIC TABLE by_door TARGET_LAG = 0 AS SELECT "
                "door, COUNT(*) AS n FROM doors GROUP BY door EMIT CHANGES")
        manager = RecoveryManager(engine)
        feed(engine, range(ticks - DELTA))
        manager.checkpoint(ticks - DELTA)
        feed(engine, range(ticks - DELTA, ticks))
        self.ticks = ticks
        self.calls, checkpoint = measured(lambda: manager.checkpoint(ticks))
        self.payload = checkpoint.state
        self.census = census(self.payload)
        self.bytes = engine.barrier_bytes
        assert checkpoint.size_bytes == self.bytes
        self.history = self.store_history()
        self.tables = self.view_contents()

    def store_history(self):
        return list(self.handle.store_history().snapshots())

    def view_contents(self):
        views = self.engine.views
        return {name: views.read(name)
                for name in views.table_names() + views.view_names()}

    def restore_after(self, ticks):
        """Calls one restore makes ``ticks`` ticks after the barrier."""
        feed(self.engine, range(self.ticks, self.ticks + ticks))
        calls, _ = measured(lambda: self.engine.restore(self.payload))
        assert self.store_history() == self.history
        assert self.view_contents() == self.tables
        return calls


@pytest.fixture(scope="module")
def runs():
    return {"early": Run(50, 500), "late": Run(2_000, 500),
            "wide": Run(50, 50_000)}


@pytest.mark.parametrize("other", ["late", "wide"])
def test_checkpoint_work_is_independent_of_history_and_state(runs, other):
    base, run = runs["early"], runs[other]
    assert run.census["containers"] == base.census["containers"]
    assert run.census["records"] == base.census["records"]
    assert run.census["ints"] == base.census["ints"]
    assert run.calls == base.calls
    assert run.bytes == base.bytes


def test_a_checkpoint_writes_the_delta_not_the_state(runs):
    run = runs["wide"]
    # 50 000 Person rows are indexed by the upper join; the delta holds
    # only the records the last DELTA ticks touched.  It copied 7 032
    # bytes on CPython 3.11; the first barrier, which copies the whole
    # index, copies 11.2 MB.
    assert run.census["records"] < 200
    assert run.bytes < 8_000


def test_sizing_a_checkpoint_reprs_no_record(monkeypatch):
    def refuse(record):
        raise AssertionError("a checkpoint was sized by repr")

    monkeypatch.setattr(Record, "__repr__", refuse)
    assert Run(50, 500, answer=True).bytes > 0


def test_an_answer_held_by_reference_adds_nothing():
    narrow, wide = Run(50, 500, answer=True), Run(50, 50_000, answer=True)
    # The Store's tail is the whole 500- or 50 000-row answer; the
    # checkpoint keeps it by reference, and sizing it must not walk it.
    assert wide.bytes == narrow.bytes
    assert wide.calls == narrow.calls


@pytest.fixture(scope="module")
def view_runs():
    return {"early": Run(50, 500, views=True),
            "late": Run(2_000, 500, views=True)}


def test_an_engine_hosting_views_checkpoints_the_delta(runs, view_runs):
    base, run = view_runs["early"], view_runs["late"]
    # The views are sized with the queries, and they wrote something.
    assert isinstance(run.bytes, int)
    assert base.bytes > runs["early"].bytes
    assert run.census == base.census
    assert run.calls == base.calls
    assert run.bytes == base.bytes
    costs = {name: [run.restore_after(ticks) for ticks in (0, 4, DELTA)]
             for name, run in view_runs.items()}
    assert costs["late"] == costs["early"]
    idle, some, all_ = costs["early"]
    assert idle < some < all_


def test_restore_work_follows_the_keys_dirtied_since_the_barrier(runs):
    costs = {name: [run.restore_after(ticks) for ticks in (0, 4, DELTA)]
             for name, run in runs.items()}
    assert costs["late"] == costs["early"]
    assert costs["wide"] == costs["early"]
    idle, some, all_ = costs["early"]
    assert idle < some < all_


def test_restore_can_be_repeated_against_one_barrier(runs):
    run = runs["early"]
    for _ in range(3):
        feed(run.engine, range(run.ticks, run.ticks + DELTA))
        assert len(run.store_history()) > len(run.history)
        run.engine.restore(run.payload)
        assert run.store_history() == run.history
