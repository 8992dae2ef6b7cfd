"""DSL jobs against a reference computed straight from the window assigners.

Each seeded program runs on the actor runtime at parallelism 1, 2 and 4,
on the heap and the LSM state backend, with operator chaining on and off,
and once more with an injected crash under checkpointing.  Its sorted
sink output must equal a reference built from ``repro.core.windows``
over the sorted input, never from the DSL itself.
"""

import itertools
import random
from collections import defaultdict

import pytest

from repro.core import SlidingWindow, TumblingWindow
from repro.core.windows import SessionWindow, merge_sessions
from repro.dsl import (
    CountAggregate,
    DataStream,
    DictBackend,
    LSMBackend,
    StreamEnvironment,
    SumAggregate,
)
from repro.runtime import FailOnceOperator

KEYS = ("k0", "k1", "k2", "k3")
SESSION_GAP = 4


def events(seed, n=48):
    """``n`` ((key, value), timestamp) pairs in timestamp order."""
    rng = random.Random(seed)
    out, t = [], 0
    for _ in range(n):
        t += rng.choice((0, 1, 2, 3, 7))
        out.append(((rng.choice(KEYS), rng.randint(1, 9)), t))
    return out


def windowed(assigner, data, fold):
    """key, result, window start, window end per (key, window) pane."""
    panes = defaultdict(list)
    for (key, value), t in data:
        for window in assigner.assign(t):
            panes[(key, window.start, window.end)].append(value)
    return sorted((key, fold(values), start, end)
                  for (key, start, end), values in panes.items())


def ref_tumbling_sum(data):
    return windowed(TumblingWindow(10), data, sum)


def ref_sliding_count(data):
    return windowed(SlidingWindow(10, 5), data, len)


def ref_session_sum(data):
    assigner = SessionWindow(SESSION_GAP)
    by_key = defaultdict(list)
    for (key, value), t in data:
        by_key[key].append((t, value))
    out = []
    for key, items in by_key.items():
        protos = [w for t, _ in items for w in assigner.assign(t)]
        for session in merge_sessions(protos):
            total = sum(v for t, v in items
                        if session.start <= t < session.end)
            out.append((key, total, session.start, session.end))
    return sorted(out)


def ref_window_join(data):
    # Even-indexed events are the left stream, odd-indexed the right.
    lefts, rights = data[0::2], data[1::2]
    panes = defaultdict(lambda: ([], []))
    for side, stream in ((0, lefts), (1, rights)):
        for (key, value), t in stream:
            for window in TumblingWindow(10).assign(t):
                panes[(key, window.start, window.end)][side].append(value)
    return sorted((key, (l, r), start, end)
                  for (key, start, end), (ls, rs) in panes.items()
                  for l in ls for r in rs)


def ref_running_count(data):
    seen = defaultdict(int)
    out = []
    for (key, _), _ in data:
        seen[key] += 1
        out.append((key, seen[key]))
    return sorted(out)


def flat(values):
    return sorted((key, result, window.start, window.end)
                  for key, result, window in values)


def crash_after_source(env, stream, fuse):
    """Insert a FailOnceOperator right after ``stream``'s vertex (none
    when ``fuse`` is None)."""
    if fuse is None:
        return stream
    name = env._fresh("chaos")
    env.graph.add_operator(name, lambda: FailOnceOperator(7, fuse),
                           env.parallelism)
    env.graph.connect(stream.vertex, name)
    return DataStream(env, name, keyed=False)


def dsl_tumbling_sum(env, data, fuse):
    stream = crash_after_source(env, env.from_collection(data), fuse)
    (stream.key_by(lambda kv: kv[0]).window(TumblingWindow(10))
     .aggregate(SumAggregate(lambda kv: kv[1])).sink("out"))
    return lambda result: flat(result.values("out"))


def dsl_sliding_count(env, data, fuse):
    stream = crash_after_source(env, env.from_collection(data), fuse)
    (stream.key_by(lambda kv: kv[0]).window(SlidingWindow(10, 5))
     .aggregate(CountAggregate()).sink("out"))
    return lambda result: flat(result.values("out"))


class MergingSum(SumAggregate):
    def merge(self, left, right):
        return left + right


def dsl_session_sum(env, data, fuse):
    stream = crash_after_source(env, env.from_collection(data), fuse)
    (stream.key_by(lambda kv: kv[0]).session_window(SESSION_GAP)
     .aggregate(MergingSum(lambda kv: kv[1])).sink("out"))
    return lambda result: flat(result.values("out"))


def dsl_window_join(env, data, fuse):
    left = crash_after_source(env, env.from_collection(data[0::2]), fuse)
    right = env.from_collection(data[1::2])
    (left.key_by(lambda kv: kv[0])
     .window_join(right.key_by(lambda kv: kv[0]), TumblingWindow(10),
                  combine=lambda l, r: (l[1], r[1]))
     .sink("out"))
    return lambda result: flat(result.values("out"))


def dsl_running_count(env, data, fuse):
    stream = crash_after_source(env, env.from_collection(data), fuse)
    (stream.map(lambda kv: (kv[0], 1)).key_by(lambda kv: kv[0])
     .reduce(lambda a, b: (a[0], a[1] + b[1])).sink("out"))
    # A running count's updates are order-insensitive: 1..n per key
    # whatever order the parallel subtasks deliver them in.
    return lambda result: sorted(value for _, value in result.values("out"))


PROGRAMS = {
    "tumbling_sum": (dsl_tumbling_sum, ref_tumbling_sum),
    "sliding_count": (dsl_sliding_count, ref_sliding_count),
    "session_sum": (dsl_session_sum, ref_session_sum),
    "window_join": (dsl_window_join, ref_window_join),
    "running_count": (dsl_running_count, ref_running_count),
}
BACKENDS = {"dict": DictBackend, "lsm": LSMBackend}
SEEDS = (0, 1)


def run(program, data, parallelism, backend, chaining,
        checkpoint_interval=None, fuse=None):
    env = StreamEnvironment(parallelism=parallelism,
                            state_backend=BACKENDS[backend],
                            chaining=chaining,
                            checkpoint_interval=checkpoint_interval)
    read = PROGRAMS[program][0](env, data, fuse)
    result = env.execute()
    return read(result), result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_matches_reference_across_configs(program, seed):
    data = events(seed)
    want = PROGRAMS[program][1](data)
    assert want, "the seeded input must produce output"
    for parallelism, backend, chaining in itertools.product(
            (1, 2, 4), sorted(BACKENDS), (True, False)):
        got, _ = run(program, data, parallelism, backend, chaining)
        assert got == want, (parallelism, backend, chaining)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_matches_reference_after_a_crash(program):
    data = events(seed=2)
    fuse = [False]
    got, result = run(program, data, parallelism=2, backend="lsm",
                      chaining=True, checkpoint_interval=3, fuse=fuse)
    assert fuse[0] and result.recoveries == 1
    assert got == PROGRAMS[program][1](data)
