"""Property tests for the Partitioner family (the routing layer job
subtask parallelism and CQL's in-plan fission stand on)."""

import os
import subprocess
import sys

import pytest

from repro.core.errors import StateError
from repro.runtime import (
    BroadcastPartitioner,
    ForwardPartitioner,
    HashPartitioner,
    RebalancePartitioner,
    default_hash,
)


class TestHashPartitioner:
    def test_deterministic_for_equal_keys(self):
        part = HashPartitioner()
        for key in ["a", "b", 7, (1, "x"), None, 3.5]:
            assert part.route(None, key, 5) == part.route(None, key, 5)

    def test_single_target_per_record(self):
        part = HashPartitioner()
        for key in range(100):
            targets = part.route(None, key, 7)
            assert len(targets) == 1
            assert 0 <= targets[0] < 7

    def test_key_fn_overrides_record_key(self):
        part = HashPartitioner(key_fn=lambda value: value["k"])
        routed = part.route({"k": "x"}, "ignored", 4)
        assert routed == (default_hash("x") % 4,)

    def test_strided_int_keys_not_starved(self):
        """Keys 0, 4, 8, … across 4 subtasks must not collapse onto one
        partition (the `key % downstream` stride bug)."""
        part = HashPartitioner()
        counts = [0] * 4
        for key in range(0, 512, 4):
            counts[part.route(None, key, 4)[0]] += 1
        assert min(counts) > 0
        # Near-uniform spread: no partition holds more than half the keys.
        assert max(counts) < sum(counts) / 2

    def test_all_partitions_covered_no_starvation(self):
        """Distribution property: over a mixed key population every
        downstream width from 2 to 8 covers all of its partitions."""
        part = HashPartitioner()
        keys = [f"user-{i}" for i in range(64)] + list(range(64)) \
            + [(i, "t") for i in range(64)]
        for width in range(2, 9):
            hit = {part.route(None, key, width)[0] for key in keys}
            assert hit == set(range(width)), f"width {width} starved"

    def test_routing_stable_across_processes(self):
        """Hash routing must agree between processes with different
        PYTHONHASHSEED values — the cross-process contract a restored
        checkpoint relies on (partition N's saved state must hold exactly
        the keys the new process routes to partition N)."""
        keys = ["alpha", "beta", 0, 4, 8, 1 << 40, (2, "x"), None]
        local = [HashPartitioner().route(None, key, 5)[0] for key in keys]
        script = (
            "from repro.runtime import HashPartitioner\n"
            "keys = ['alpha', 'beta', 0, 4, 8, 1 << 40, (2, 'x'), None]\n"
            "print([HashPartitioner().route(None, k, 5)[0] for k in keys])\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True)
        assert out.stdout.strip() == repr(local)


class TestBroadcastPartitioner:
    def test_reaches_every_subtask(self):
        part = BroadcastPartitioner()
        for width in range(1, 9):
            assert tuple(part.route("v", "k", width)) == tuple(range(width))


class TestForwardPartitioner:
    def test_subtask_i_to_subtask_i(self):
        part = ForwardPartitioner()
        part.upstream_index = 3
        assert part.route("v", "k", 4) == (3,)

    def test_requires_equal_parallelism(self):
        part = ForwardPartitioner()
        part.upstream_index = 2
        with pytest.raises(StateError):
            part.route("v", "k", 2)

    def test_is_the_fusible_edge(self):
        assert ForwardPartitioner().is_forward
        assert not HashPartitioner().is_forward
        assert not BroadcastPartitioner().is_forward
        assert not RebalancePartitioner().is_forward


class TestRebalancePartitioner:
    def test_round_robin(self):
        part = RebalancePartitioner()
        routed = [part.route("v", None, 3)[0] for _ in range(6)]
        assert routed == [0, 1, 2, 0, 1, 2]

    def test_width_alternation_keeps_cycles(self):
        """One instance shared across edges of different widths must keep
        a round-robin position per width — the old code rebuilt the cycle
        on every width change, so alternating calls always returned 0."""
        part = RebalancePartitioner()
        wide = []
        narrow = []
        for _ in range(4):
            wide.append(part.route("v", None, 4)[0])
            narrow.append(part.route("v", None, 2)[0])
        assert wide == [0, 1, 2, 3]
        assert narrow == [0, 1, 0, 1]

    def test_no_subtask_starved(self):
        part = RebalancePartitioner()
        counts = [0] * 5
        for _ in range(50):
            counts[part.route("v", None, 5)[0]] += 1
        assert counts == [10] * 5
