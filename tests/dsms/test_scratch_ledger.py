"""Ledger exactness: the owner-keyed Scratch and the operators' O(1)
state tallies against their audits.

Seeded random scripts of register / ingest / run_until_idle /
advance_time / cancel_query / rescale_query / injected-crash recovery
drive engines of every flavour; after every step the ledger's running
total must equal the full audit and ``total_state_size()``, and every
operator's maintained ``state_size``
must equal the summing formula it replaced — kept here, test-side, as
the audit.

Scripts without cancels are also run on an engine whose every settle is
a full audit (the accounting the engine had before the ledger), and a
few are pinned to numbers recorded at the parent commit: ``mean_scratch``,
``peak_scratch`` and ``scratch.peak`` did not move.
"""

import random

import pytest

from repro.bench import OBSERVATION_SCHEMA, room_observations
from repro.chaos import CrashFuse, install_crash
from repro.core import Schema
from repro.cql.executor import AppendOnlyJoinOp, JoinOp, StreamSourceOp
from repro.dsms import DSMSEngine, Scratch
from repro.plan.parallel import partition_scheme

OBS = Schema(["id", "room", "temp"])
BADGE = Schema(["id", "door"])
PERSON = Schema(["id", "name"])
ROOMS = ["kitchen", "lab", "hall", "attic"]

#: (query text, streams read, key-partitionable).  Between them the
#: texts reach every buffer a window source keeps (expiries, FIFO,
#: per-key FIFOs, stepped pending/visible) and all three join flavours
#: (counted, append-only, stream-relation).
POOL = [
    ("SELECT room, COUNT(*) AS n FROM Obs [Range 6] GROUP BY room",
     ("Obs",), True),
    ("SELECT DISTINCT room FROM Obs [Range 4] WHERE temp > 12",
     ("Obs",), False),
    ("SELECT ISTREAM id, room FROM Obs [Now]", ("Obs",), False),
    ("SELECT COUNT(*) AS n FROM Obs [Rows 5]", ("Obs",), False),
    ("SELECT room, MAX(temp) AS hot FROM Obs [Partition By room Rows 2] "
     "GROUP BY room", ("Obs",), True),
    ("SELECT id FROM Obs [Range 8 Slide 4]", ("Obs",), False),
    ("SELECT room, AVG(temp) AS mean FROM Obs [Range 9 Slide 3] "
     "GROUP BY room", ("Obs",), True),
    ("SELECT O.id, B.door FROM Obs O [Range 5], Badge B [Range 7] "
     "WHERE O.id = B.id", ("Obs", "Badge"), True),
    ("SELECT O.room, B.door FROM Obs O [Range Unbounded], "
     "Badge B [Range Unbounded] WHERE O.id = B.id", ("Obs", "Badge"), True),
    ("SELECT P.name, O.room FROM Person P, Obs O [Range 5] "
     "WHERE P.id = O.id", ("Obs",), True),
]

#: Engine options per mode.  The pinned modes keep one tuple per quantum
#: (``batch_size=1``): their ``mean_scratch`` is a per-quantum average,
#: and the pins measure the ledger, not the quantum.  ``instant`` is the
#: default engine — one quantum per query per instant — unpinned.
MODES = {
    "isolated": {"batch_size": 1},
    "sharing": {"sharing": True},
    "parallel": {"batch_size": 1},
    "batched": {"batch_size": 4},
    "recovering": {"recovery_interval": 3, "batch_size": 1},
    "instant": {},
}


def make_engine(mode, scratch=None):
    engine = DSMSEngine(**MODES[mode])
    if scratch is not None:
        engine.scratch = scratch
    engine.register_stream("Obs", OBS)
    engine.register_stream("Badge", BADGE)
    engine.register_relation(
        "Person", PERSON, [{"id": i, "name": f"p{i}"} for i in range(6)])
    return engine


def make_script(mode, seed, cancels=True, steps=40):
    """A list of steps, a pure function of (mode, seed, cancels).

    The generator tracks which queries are alive and whether anything is
    queued, so every step is legal: rescales and (under recovery)
    registrations and cancels happen at quiescence, and a shared group
    takes all its members before data flows.
    """
    rng = random.Random(f"{mode}/{seed}")
    script = []
    alive = {}  # name -> (streams, partitionable)
    counter = 0
    dirty = False
    t = 0

    def register():
        nonlocal counter
        text, streams, partitionable = POOL[rng.randrange(len(POOL))]
        name = f"q{counter}"
        counter += 1
        parallelism = None
        if mode == "parallel" and partitionable:
            parallelism = rng.choice([2, 3])
        script.append(("register", name, text, parallelism))
        alive[name] = (streams, partitionable)

    def rows(stream, n):
        if stream == "Obs":
            return [{"id": rng.randrange(6), "room": rng.choice(ROOMS),
                     "temp": rng.randrange(10, 30)} for _ in range(n)]
        return [{"id": rng.randrange(6), "door": rng.randrange(3)}
                for _ in range(n)]

    def drain():
        nonlocal dirty
        script.append(("drain",))
        dirty = False

    for _ in range(4 if mode == "sharing" else 2):
        register()
    for _ in range(steps):
        kind = rng.choice(["ingest", "ingest", "ingest", "drain", "drain",
                           "advance", "register", "cancel", "rescale",
                           "crash"])
        if kind == "ingest":
            t += rng.randrange(3)
            stream = rng.choice(["Obs", "Obs", "Badge"])
            script.append(("ingest", stream,
                           rows(stream, rng.randrange(1, 6)), t))
            dirty = True
        elif kind == "drain":
            drain()
        elif kind == "advance":
            t += rng.randrange(1, 7)
            script.append(("advance", t))
            dirty = False  # advance_time leaves queues alone; see run()
        elif kind == "register" and mode != "sharing":
            if mode == "recovering" and dirty:
                drain()
            register()
        elif kind == "cancel" and cancels and mode != "sharing" and alive:
            if mode == "recovering" and dirty:
                drain()
            name = rng.choice(sorted(alive))
            del alive[name]
            script.append(("cancel", name))
        elif kind == "rescale" and mode in ("isolated", "parallel",
                                            "recovering", "instant"):
            candidates = sorted(n for n, (_, part) in alive.items() if part)
            if candidates:
                if dirty:
                    drain()
                script.append(("rescale", rng.choice(candidates),
                               rng.choice([1, 2, 3])))
        elif kind == "crash" and mode == "recovering" and alive:
            if dirty:
                drain()
            name = rng.choice(sorted(alive))
            t += 1
            script.append(("crash", name, rng.randrange(8),
                           rng.randrange(1, 4),
                           rows(alive[name][0][0], 4), alive[name][0][0], t))
    drain()
    return script


def run(engine, script, after_step=lambda engine: None):
    for step in script:
        kind = step[0]
        if kind == "register":
            _, name, text, parallelism = step
            engine.register_query(name, text, parallelism=parallelism)
        elif kind == "ingest":
            _, stream, rows, t = step
            for row in rows:
                engine.ingest(stream, row, t)
        elif kind == "drain":
            engine.run_until_idle()
        elif kind == "advance":
            # Drain first: advancing past queued tuples would make them
            # late, which the executor (rightly) rejects.
            engine.run_until_idle()
            engine.advance_time(step[1])
        elif kind == "cancel":
            engine.cancel_query(step[1])
        elif kind == "rescale":
            engine.rescale_query(step[1], step[2])
        elif kind == "crash":
            _, name, position, at, rows, stream, t = step
            query = engine.query(name).query
            target = query.replicas()[0] if hasattr(query, "replicas") \
                else query
            fuse = CrashFuse(at=at)
            install_crash(target, position % len(target.operators()), fuse)
            for row in rows:
                engine.ingest(stream, row, t)
            engine.run_until_idle()
            fuse.times = 0  # an unblown fuse must not fire in advance_time
        after_step(engine)


# -- the audits --------------------------------------------------------------


def audit_state_size(op):
    """The summing formulas ``state_size`` used before the tallies."""
    if isinstance(op, StreamSourceOp):
        return (sum(len(v) for v in op._expiries.data.values())
                + len(op._fifo)
                + sum(len(q) for q in op._per_key.data.values())
                + len(op._pending) + len(op._visible))
    if isinstance(op, AppendOnlyJoinOp):
        return (sum(sum(m for _, m in v)
                    for v in op._left_state.data.values())
                + sum(sum(m for _, m in v)
                      for v in op._right_state.data.values()))
    if isinstance(op, JoinOp):
        return (sum(sum(c.values()) for c in op._left_state.data.values())
                + sum(sum(c.values())
                      for c in op._right_state.data.values()))
    return op.state_size


def stateful_operators(engine):
    seen = {}
    for handle in engine.queries:
        stack = list(handle.query.physical_roots())
        while stack:
            op = stack.pop()
            if hasattr(op, "state_size"):
                seen[id(op)] = op
            stack.extend(op.children)
    return list(seen.values())


def assert_ledger_exact(engine):
    scratch = engine.scratch
    total = scratch.total
    assert total == scratch.occupancy()
    assert total == engine.total_state_size()
    operators = stateful_operators(engine)
    assert len(scratch) == len(operators)
    for op in operators:
        assert op.state_size == audit_state_size(op), type(op).__name__
    assert sum(scratch.breakdown().values()) == total


class AuditingScratch(Scratch):
    """The accounting before the ledger: every settle re-reads every
    holder of every owner."""

    def settle(self, owner):
        return self.occupancy()


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", range(6))
def test_ledger_total_equals_audit_after_every_step(mode, seed):
    engine = make_engine(mode)
    script = make_script(mode, seed)
    run(engine, script, after_step=assert_ledger_exact)
    kinds = {step[0] for step in script}
    assert {"register", "ingest", "drain"} <= kinds


def test_scripts_reach_every_step_kind_and_operator_flavour():
    cql = make_engine("isolated")._cql
    for text, _, partitionable in POOL:
        assert (partition_scheme(cql.plan(text)) is not None) \
            == partitionable, text
    kinds, operators, recoveries = set(), set(), 0
    for mode in MODES:
        for seed in range(6):
            script = make_script(mode, seed)
            kinds |= {step[0] for step in script}
            engine = make_engine(mode)
            run(engine, script)
            operators |= {type(op).__name__
                          for op in stateful_operators(engine)}
            if engine.recovery is not None:
                recoveries += engine.recovery.attempts
    assert recoveries >= 10  # injected crashes fire and roll back
    assert kinds == {"register", "ingest", "drain", "advance", "cancel",
                     "rescale", "crash"}
    assert {"StreamSourceOp", "JoinOp", "AppendOnlyJoinOp", "AggregateOp",
            "DistinctOp"} <= operators


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", range(4))
def test_metrics_match_an_audit_at_every_settle(mode, seed):
    script = make_script(mode, seed, cancels=False)
    ledger = make_engine(mode)
    audited = make_engine(mode, scratch=AuditingScratch())
    run(ledger, script)
    run(audited, script)
    assert ledger.metrics_table() == audited.metrics_table()
    assert ledger.scratch.peak == audited.scratch.peak
    assert ledger.throw.discarded == audited.throw.discarded


def scratch_numbers(engine):
    return (engine.scratch.peak,
            {name: (row["mean_scratch"], row["peak_scratch"])
             for name, row in engine.metrics_table().items()})


#: ``scratch_numbers`` of ``make_script(mode, seed, cancels=False)``,
#: recorded at the parent commit (per-quantum full audit, two-argument
#: ``Scratch.register``) — the accounting users saw before the ledger.
PINNED = {
    ('batched', 0): (94,
                     {'q0': (30.0, 87),
                      'q1': (32.53846153846154, 88),
                      'q2': (44.285714285714285, 89),
                      'q3': (46.285714285714285, 90),
                      'q4': (61.2, 92),
                      'q5': (79.33333333333333, 94)}),
    ('batched', 1): (67,
                     {'q0': (33.53846153846154, 67),
                      'q1': (28.25, 60),
                      'q2': (32.142857142857146, 60),
                      'q3': (43.6, 63)}),
    ('isolated', 0): (133,
                      {'q0': (66.36507936507937, 132),
                       'q1': (67.36507936507937, 133),
                       'q2': (91.61111111111111, 132),
                       'q3': (106.92857142857143, 129),
                       'q4': (115.5625, 130),
                       'q5': (0.0, 0.0)}),
    ('isolated', 1): (107,
                      {'q0': (56.8125, 103),
                       'q1': (63.22222222222222, 107),
                       'q2': (58.75, 104),
                       'q3': (58.8125, 103),
                       'q4': (60.0625, 103),
                       'q5': (77.5, 104),
                       'q6': (86.125, 105),
                       'q7': (0.0, 0.0)}),
    ('parallel', 0): (16,
                      {'q0': (8.518518518518519, 15),
                       'q1': (8.74074074074074, 15),
                       'q2': (12.166666666666666, 16)}),
    ('parallel', 1): (153,
                      {'q0': (68.93333333333334, 152),
                       'q1': (69.93333333333334, 153),
                       'q2': (70.06666666666666, 127),
                       'q3': (81.29166666666667, 135),
                       'q4': (69.8, 144),
                       'q5': (146.0, 146),
                       'q6': (140.0, 147),
                       'q7': (149.0, 149),
                       'q8': (151.0, 151)}),
    ('recovering', 0): (41,
                        {'q0': (21.133333333333333, 40),
                         'q1': (21.772727272727273, 41),
                         'q2': (23.25, 41),
                         'q3': (28.714285714285715, 38)}),
    ('recovering', 1): (68,
                        {'q0': (21.392857142857142, 61),
                         'q1': (21.607142857142858, 62),
                         'q2': (37.2, 64),
                         'q3': (38.375, 58),
                         'q4': (50.0, 59),
                         'q5': (58.75, 68)}),
    ('sharing', 0): (111,
                     {'q0': (62.861111111111114, 111),
                      'q1': (67.2280701754386, 111),
                      'q2': (62.861111111111114, 111),
                      'q3': (62.861111111111114, 111)}),
    ('sharing', 1): (73,
                     {'q0': (34.172413793103445, 73),
                      'q1': (35.875, 73),
                      'q2': (35.875, 73),
                      'q3': (35.875, 73)}),
}


@pytest.mark.parametrize("mode, seed", sorted(PINNED))
def test_scratch_metrics_unchanged_against_the_parent_commit(mode, seed):
    engine = make_engine(mode)
    run(engine, make_script(mode, seed, cancels=False))
    assert scratch_numbers(engine) == PINNED[mode, seed]


def test_fig3_table_is_byte_identical():
    """benchmarks/bench_fig3_dsms_architecture.py's sweep, pinned to the
    table it printed at the parent commit."""
    rows = room_observations(150)
    horizon = rows[-1][1]
    table = []
    for window in (50, 200, 800):
        engine = DSMSEngine()
        engine.register_stream("Obs", OBSERVATION_SCHEMA)
        handle = engine.register_query(
            "avg", f"SELECT room, AVG(temp) a FROM Obs [Range {window}] "
                   f"GROUP BY room")
        for row, t in rows:
            engine.ingest("Obs", row, t)
            engine.run_until_idle()
        engine.advance_time(horizon + window + 1)
        metrics = handle.metrics.as_dict()
        table.append((window, engine.scratch.peak, engine.throw.discarded,
                      len(handle.store_state()), metrics["mean_scratch"],
                      metrics["peak_scratch"]))
    assert table == [
        (50, 13, 150, 0, 9.033333333333333, 13),
        (200, 29, 150, 0, 23.953333333333333, 29),
        (800, 89, 150, 0, 63.413333333333334, 89),
    ]
