"""One operator protocol inside an instant: every physical operator's one
entry point is ``process(t, inputs)``, and ``InstantEvaluator.run`` is its
one caller, once per distinct operator per instant — counted, never
timed — whether the DAG is a shared group, a fissioned query or a
cascade of dynamic tables."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro.obs as obs
from repro.chaos import CrashFuse, InjectedCrash, install_crash
from repro.core import Schema
from repro.cql import CQLEngine, executor
from repro.cql.executor import InstantEvaluator, PhysicalOp
from repro.obs import profile
from repro.views import DynamicTableService

OBS = Schema(["id", "room", "temp"])
INSTANTS = 6

Q_COUNT = "SELECT COUNT(*) AS n FROM Obs [Range 100] WHERE temp > 20"
Q_IDS = "SELECT DISTINCT id FROM Obs [Range 100] WHERE temp > 20"
Q_ROOMS = ("SELECT room, COUNT(*) AS n FROM Obs [Range 100] "
           "GROUP BY room")


def row(t):
    return {"id": t % 3, "room": "abc"[t % 3], "temp": 15 + 3 * t}


def engine():
    cql = CQLEngine()
    cql.register_stream("Obs", OBS)
    return cql


class Census:
    """``process`` calls per operator and ``run`` calls per evaluator."""

    def __init__(self, monkeypatch):
        self.calls, self.runs = Counter(), Counter()
        for cls in vars(executor).values():
            if isinstance(cls, type) and issubclass(cls, PhysicalOp) \
                    and "process" in vars(cls):
                monkeypatch.setattr(cls, "process", self._counted(cls.process))
        run = InstantEvaluator.run

        def counted_run(evaluator, t):
            self.runs[id(evaluator)] += 1
            return run(evaluator, t)

        monkeypatch.setattr(InstantEvaluator, "run", counted_run)

    def _counted(self, process):
        def counted(op, t, child_deltas):
            self.calls[id(op)] += 1
            return process(op, t, child_deltas)
        return counted

    def clear(self):
        self.calls.clear()
        self.runs.clear()

    def check(self, evaluators, instants):
        """Each evaluator ran ``instants`` times, and each of its distinct
        operators ran once per run — and nothing else ran: the calls are
        the distinct operators × the instants."""
        want = Counter()
        for evaluator in evaluators:
            assert self.runs[id(evaluator)] == instants
            for op in evaluator.operators:
                want[id(op)] += instants
        assert self.calls == want


@pytest.fixture
def census(monkeypatch):
    return Census(monkeypatch)


class TestOneProcessPerOperatorPerInstant:
    def test_a_shared_group_runs_its_shared_window_once(self, census):
        cql = engine()
        group = cql.shared_group()
        members = [cql.register_query(text, shared=group)
                   for text in (Q_COUNT, Q_IDS)]
        sources = [op for op in group.distinct_operators()
                   if isinstance(op, executor.StreamSourceOp)]
        assert len(sources) == 1   # the window both members read
        members[0].start()
        census.clear()
        for t in range(1, INSTANTS + 1):
            members[0].push("Obs", row(t), t)
        census.check([group._evaluator], INSTANTS)

    def test_a_fissioned_query_runs_each_partition_once(self, census):
        query = engine().register_query(Q_ROOMS, parallelism=2)
        assert query.parallelism == 2
        query.start()
        census.clear()
        for t in range(1, INSTANTS + 1):
            query.push("Obs", row(t), t)
        census.check([query.group._evaluator], INSTANTS)

    def test_a_three_level_view_refresh_runs_each_view_once(self, census):
        service = DynamicTableService()
        service.create_table("t", Schema(["k", "v"]))
        service.apply("t", inserts=[{"k": 1, "v": 1}], at=1)
        for name, text in (
                ("hot", "SELECT k, v FROM t WHERE v > 0"),
                ("sums", "SELECT k, SUM(v) AS total FROM hot GROUP BY k"),
                ("keys", "SELECT COUNT(*) AS n FROM sums")):
            service.execute(f"CREATE DYNAMIC TABLE {name} TARGET_LAG = 0 "
                            f"AS {text} EMIT CHANGES")
        census.clear()
        for t in range(2, INSTANTS + 2):
            service.apply("t", inserts=[{"k": t % 4, "v": t}], at=t)
            assert sorted(service.tick(t)) == ["hot", "keys", "sums"]
        census.check([service.view(name)._evaluator
                      for name in service.view_names()], INSTANTS)


def shared_pair():
    cql = engine()
    group = cql.shared_group()
    members = [cql.register_query(text, shared=group)
               for text in (Q_COUNT, Q_IDS)]
    members[0].start()
    members[0].push("Obs", row(1), 1)
    return members


@pytest.mark.parametrize("position", range(len(shared_pair()[0].operators())))
def test_a_crash_armed_after_the_first_instant_fires(position):
    """The evaluator looks ``process`` up on the operator at every call,
    so a wrapper installed once the evaluator has run is the one called."""
    members = shared_pair()
    fuse = CrashFuse(at=1)
    install_crash(members[0], position, fuse)
    with pytest.raises(InjectedCrash):
        members[0].push("Obs", row(2), 2)
    assert fuse.fired == 1


def test_with_obs_on_every_operator_is_timed_and_shares_sum_to_one():
    obs.enable()
    members = shared_pair()
    for t in range(2, INSTANTS + 1):
        members[0].push("Obs", row(t), t)
    for member in members:
        operators = profile.analyze(member)["operators"]
        assert all(entry["busy_seconds"] > 0 for entry in operators)
        assert sum(entry["busy_share"] for entry in operators) \
            == pytest.approx(1.0)
        assert "busy=" in profile.explain_analyze(member)
    hist = obs.get_registry().histogram("exec.query.instant_eval_seconds",
                                        layer="cql")
    assert hist.count == INSTANTS + 1   # the start instant too


def test_the_instant_histogram_follows_a_registry_reset():
    """Instants timed after ``obs.reset()`` land in the live registry,
    not in a histogram the reset orphaned."""
    obs.enable()
    members = shared_pair()
    stale = obs.get_registry().histogram("exec.query.instant_eval_seconds",
                                         layer="cql")
    assert stale.count == 2
    obs.reset()
    obs.enable()
    members[0].push("Obs", row(2), 2)
    live = obs.get_registry().histogram("exec.query.instant_eval_seconds",
                                        layer="cql")
    assert (stale.count, live.count) == (2, 1)


# ---------------------------------------------------------------------------
# No second entry point
# ---------------------------------------------------------------------------

#: The names a second per-instant entry point took on an operator.
RETIRED = {"apply", "_timed_process", "process_instant"}


def retired_entry_points(source: str) -> list[str]:
    """``Class.name`` for each retired entry point a physical operator
    class (a class named ``...Op``) defines or aliases in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Op")):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [target.id for target in item.targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names
                      if name in RETIRED]
    return found


@pytest.mark.parametrize("package", ["repro/cql", "repro/views"])
def test_operators_have_one_entry_point(package):
    src = Path(__file__).resolve().parents[2] / "src"
    offenders = [
        f"{path.relative_to(src)}: {entry}"
        for path in sorted((src / package).rglob("*.py"))
        for entry in retired_entry_points(path.read_text())]
    assert offenders == []


@pytest.mark.parametrize("source, found", [
    ("class PhysicalOp:\n"
     "    def apply(self, t, child_deltas, child_active):\n"
     "        return self.process(t, child_deltas), child_active\n",
     ["PhysicalOp.apply"]),
    ("class PhysicalOp:\n"
     "    def _timed_process(self, t, child_deltas):\n"
     "        return self.process(t, child_deltas)\n",
     ["PhysicalOp._timed_process"]),
    ("class StreamSourceOp(PhysicalOp):\n"
     "    def process_instant(self, t):\n"
     "        return self.process(t, []), True\n",
     ["StreamSourceOp.process_instant"]),
    ("class GroupWindowSourceOp(PhysicalOp):\n"
     "    process_instant = StreamSourceOp.process_instant\n",
     ["GroupWindowSourceOp.process_instant"]),
    # A base-table write on the view service is no operator entry point.
    ("class DynamicTableService:\n"
     "    def apply(self, name, inserts=(), deletes=(), at=None):\n"
     "        pass\n", []),
])
def test_the_guard_finds_a_second_entry_point(source, found):
    assert retired_entry_points(source) == found


def test_the_evaluator_returns_one_batch_per_root():
    members = shared_pair()
    batches = members[0].group._evaluator.run(5)
    assert len(batches) == len(members)
    assert all(isinstance(batch, list) for batch in batches)


def test_activity_is_per_instant_input_not_state():
    """The children's activity is handed to an operator before each call:
    no checkpoint copies it and no rescale carries it."""
    operators = [cls for cls in vars(executor).values()
                 if isinstance(cls, type) and issubclass(cls, PhysicalOp)]
    assert executor.AggregateOp in operators
    assert [cls.__name__ for cls in operators
            if "_child_active" in cls._STATE_ATTRS] == []
