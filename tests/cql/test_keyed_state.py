"""KeyedState: the one container under every physical operator's keyed
state — dirty marks, barrier/rollback, sizing and partition splits."""

import copy
import re
from collections import deque
from pathlib import Path
from sys import getsizeof

import pytest

from repro.core import Schema, StateError
from repro.cql import CQLEngine
from repro.cql import state as state_module
from repro.cql.state import KeyedState


def filled(entries, weigh=None):
    state = KeyedState(weigh)
    state.data.update(entries)
    state.tally = 0 if weigh is None else sum(map(weigh, entries.values()))
    return state


class TestBarrierAndRollback:
    def test_marks_are_ignored_until_the_first_barrier(self):
        state = filled({"a": [1]}, weigh=len)
        state.mark(["a", "b"])
        changed, _ = state.barrier()
        assert changed == {"a": [1]}          # every key, at the first
        changed, copied = state.barrier()
        assert changed == {} and copied == 0  # nothing marked since

    def test_barrier_writes_marked_keys_and_sizes_their_copies(self):
        state = filled({"a": [1], "b": [2, 3]}, weigh=len)
        state.barrier()
        state.data["b"].append(4)
        state.data["c"] = [5]
        del state.data["a"]
        state.mark(["a", "b", "c"])
        changed, copied = state.barrier()
        assert changed == {"a": None, "b": [2, 3, 4], "c": [5]}
        assert copied == getsizeof(changed["b"]) + getsizeof(changed["c"])
        assert changed["b"] is not state.data["b"]

    def test_rollback_restores_marked_keys_and_the_tally_repeatably(self):
        state = filled({"a": [1], "b": [2]}, weigh=len)
        state.barrier()
        for _ in range(2):
            state.data["a"].append(9)
            state.data["c"] = [7, 8]
            del state.data["b"]
            state.tally += 1 + 2 - 1
            state.mark(["a", "b", "c"])
            state.rollback()
            assert state.data == {"a": [1], "b": [2]}
            assert state.tally == 2

    def test_rollback_never_hands_out_the_image(self):
        state = filled({"a": {"r": 1}})
        image, _ = state.barrier()
        state.mark(["a"])
        state.rollback()
        state.data["a"]["r"] = 5
        assert image == {"a": {"r": 1}}

    def test_rollback_without_a_barrier_is_refused(self):
        with pytest.raises(StateError):
            KeyedState().rollback()


def by_parity(key, item):
    return item % 2


class TestSplit:
    @pytest.mark.parametrize("entry", [
        [1, 2, 3, 4], deque([1, 2, 3, 4]), {1, 2, 3, 4},
        {1: 10, 2: 20, 3: 30, 4: 40},
    ], ids=lambda entry: type(entry).__name__)
    def test_collections_split_item_by_item(self, entry):
        kind = type(entry)
        source = filled({"k": entry}, weigh=len)
        targets = [KeyedState(len), KeyedState(len)]
        assert source.split(targets, by_parity) == 4
        evens, odds = (target.data["k"] for target in targets)
        assert type(evens) is kind and type(odds) is kind
        assert sorted(evens) == [2, 4] and sorted(odds) == [1, 3]
        if kind is dict:
            assert evens == {2: 20, 4: 40}
        assert [target.tally for target in targets] == [2, 2]
        assert source.data == {"k": entry}    # the source is only read

    def test_other_entries_move_whole_by_their_value(self):
        source = filled({"a": 1, "b": 2, "c": 3})
        targets = [KeyedState(), KeyedState()]
        assert source.split(targets, by_parity) == 3
        assert targets[0].data == {"b": 2}
        assert targets[1].data == {"a": 1, "c": 3}

    def test_sources_merge_and_entries_are_conserved(self):
        def weigh(entry):
            return sum(entry.values())

        sources = [filled({"k": {1: 2, 2: 1}, "j": {3: 5}}, weigh),
                   filled({"k": {4: 3}, "j": {6: 1, 7: 1}}, weigh)]
        targets = [KeyedState(weigh) for _ in range(3)]
        moved = sum(source.split(targets, lambda key, item: item % 3)
                    for source in sources)
        assert moved == 6
        held = {}
        for target in targets:
            assert target.tally == sum(map(weigh, target.data.values()))
            for key, entry in target.data.items():
                for item, mult in entry.items():
                    assert (key, item) not in held
                    held[key, item] = mult
        assert held == {("k", 1): 2, ("k", 2): 1, ("k", 4): 3,
                        ("j", 3): 5, ("j", 6): 1, ("j", 7): 1}
        assert sum(target.tally for target in targets) == 13


#: (query, the operators whose containers it fills)
QUERIES = [
    ("SELECT room, COUNT(*) AS n, MAX(temp) AS hot FROM Obs [Range 3] "
     "GROUP BY room", {"StreamSourceOp", "AggregateOp"}),
    ("SELECT room, MIN(temp) AS cold FROM Obs [Partition By room Rows 2] "
     "GROUP BY room", {"StreamSourceOp", "AggregateOp"}),
    ("SELECT O.id, A.level FROM Obs O [Range 3], Alerts A [Range 3] "
     "WHERE O.room = A.room", {"JoinOp"}),
    ("SELECT O.id, A.level FROM Obs O [Range Unbounded], "
     "Alerts A [Range Unbounded] WHERE O.room = A.room", {"JoinOp"}),
    ("SELECT DISTINCT room FROM Obs [Range 3]", {"DistinctOp"}),
    ("SELECT DISTINCT room FROM Obs [Range Unbounded]", {"DistinctOp"}),
    ("SELECT room FROM Obs [Range 3] EXCEPT ALL "
     "SELECT room FROM Alerts [Range 3]", {"SetOpOp"}),
    ("SELECT room FROM Obs [Range 3] INTERSECT ALL "
     "SELECT room FROM Alerts [Range 3]", {"SetOpOp"}),
    ("SELECT id FROM Obs [Rows 2]", {"StreamSourceOp"}),
    ("SELECT id FROM Obs [Range 4 Slide 2]", {"StreamSourceOp"}),
]

ROOMS = ["kitchen", "lab", "hall", "attic", "cellar"]


def room(t, i):
    # From t = 5 on, new rooms join the old ones: every container gains
    # keys as well as changing the ones it held.
    return ROOMS[(t + i) % (3 if t < 5 else 5)]


def feed(query, instants):
    streams = set(query._stream_sources)
    for t in instants:
        arrivals = {
            "Obs": [{"id": t * 10 + i, "room": room(t, i),
                     "temp": (t * 7 + i) % 30} for i in range(2)],
            "Alerts": [{"room": room(t, 1), "level": t}]}
        query.push_batch(t, {name: rows for name, rows in arrivals.items()
                             if name in streams})


def operator_state(op):
    """A private copy of an operator's state: each ``_STATE_ATTRS`` value
    (a keyed container's entries) and its counters."""
    state = {attr: getattr(op, attr) for attr in op._STATE_ATTRS}
    state = {attr: value.data if isinstance(value, KeyedState) else value
             for attr, value in state.items()}
    state["emitted"], state["received"] = op.emitted, op.received
    return copy.deepcopy(state)


def plain(value):
    """``value`` with the state objects that compare by identity (an
    aggregate group, its MIN/MAX accumulators) turned into their fields."""
    if isinstance(value, dict):
        return {key: plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [plain(entry) for entry in value]
    if type(value).__eq__ is object.__eq__ and hasattr(value, "__slots__"):
        return {slot: plain(getattr(value, slot)) for slot in value.__slots__}
    return value


@pytest.mark.parametrize("text, expected", QUERIES,
                         ids=[f"q{i}" for i in range(len(QUERIES))])
def test_every_operator_rolls_back_to_its_barrier(text, expected):
    """Barrier, mutate, rollback: every operator's state — each keyed
    container and the whole-copied rest — is back where the barrier was,
    which a key changed without a mark would break."""
    engine = CQLEngine()
    engine.catalog.register_stream("Obs", Schema(["id", "room", "temp"]))
    engine.catalog.register_stream("Alerts", Schema(["room", "level"]))
    query = engine.register_query(text)
    assert expected <= {name for name, _ in query.operators()}

    def states():
        return [(name, plain(operator_state(op)),
                 getattr(op, "state_size", None))
                for name, op in query.operators()]

    def containers(state):
        name, payload, _ = state
        return name, {attr: value for attr, value in payload.items()
                      if attr not in ("emitted", "received")}

    query.start()
    feed(query, range(0, 5))
    checkpoint = query.snapshot()
    at_barrier = states()
    for _ in range(2):
        feed(query, range(5, 9))
        changed = {containers(now)[0]
                   for now, then in zip(states(), at_barrier)
                   if containers(now) != containers(then)}
        assert expected <= changed
        query.restore(checkpoint)
        assert states() == at_barrier


def test_only_the_container_touches_dirty_marks():
    """Hand-marking stays gone: outside the container module no source or
    test file names the dirty marks or the per-class keyed/whole
    attribute lists."""
    root = Path(__file__).resolve().parents[2]
    container = Path(state_module.__file__).resolve()
    banned = re.compile(r"\b_(dirty|KEYED_ATTRS|WHOLE_ATTRS)\b")
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for top in ("src", "tests") for path in (root / top).rglob("*.py")
        if path.resolve() != container
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)]
    assert offenders == []
