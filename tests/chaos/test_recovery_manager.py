"""Tests for RecoveryManager and the restore-and-replay drivers."""

import pytest

import repro.obs as obs
from repro.chaos import Checkpoint, CrashFuse, InjectedCrash, \
    RecoveryManager, run_with_recovery
from repro.core.errors import StateError


class Register:
    """The smallest snapshot-capable target: one accumulating list."""

    def __init__(self):
        self.items = []

    def apply(self, item):
        self.items.append(item)

    def snapshot(self):
        return list(self.items)

    def restore(self, state):
        self.items = list(state)


class TestCheckpointing:
    def test_interval_must_be_positive(self):
        with pytest.raises(StateError):
            RecoveryManager(Register(), interval=0)

    def test_start_takes_the_baseline_once(self):
        manager = RecoveryManager(Register(), interval=2)
        first = manager.start()
        assert (first.checkpoint_id, first.offset) == (1, 0)
        assert manager.start() is first

    def test_committed_checkpoints_on_the_interval(self):
        manager = RecoveryManager(Register(), interval=3)
        manager.start()
        assert manager.committed(1) is None
        assert manager.committed(2) is None
        taken = manager.committed(3)
        assert isinstance(taken, Checkpoint) and taken.offset == 3
        assert manager.committed(4) is None

    def test_pruning_keeps_the_newest(self):
        manager = RecoveryManager(Register(), interval=1)
        for offset in range(5):
            manager.checkpoint(offset)
        assert [c.offset for c in manager.checkpoints] == [4]
        assert manager.latest().checkpoint_id == 5

    def test_snapshot_is_isolated_from_later_mutation(self):
        target = Register()
        manager = RecoveryManager(target, interval=1)
        target.apply("a")
        manager.checkpoint(1)
        target.apply("b")
        manager.recover()
        assert target.items == ["a"]


class TestRecovery:
    def test_recover_without_checkpoint_raises(self):
        with pytest.raises(StateError):
            RecoveryManager(Register()).recover()

    def test_backoff_schedule_is_exponential_and_capped(self):
        naps = []
        manager = RecoveryManager(Register(), backoff_base=0.1,
                                  backoff_cap=0.5, sleep=naps.append)
        for failure in (1, 2, 3, 4):
            manager.backoff(failure)
        assert manager.backoffs == [0.1, 0.2, 0.4, 0.5]
        assert naps == manager.backoffs

    def test_zero_base_skips_sleeping(self):
        manager = RecoveryManager(
            Register(), backoff_base=0.0,
            sleep=lambda _d: pytest.fail("slept on zero backoff"))
        assert manager.backoff(3) == 0.0


class TestRunWithRecovery:
    def driver(self, fuse, **kwargs):
        target = Register()

        def apply(unit, _index):
            target.apply(unit)
            if fuse.record():
                raise InjectedCrash(f"boom at {unit}")

        manager = RecoveryManager(target, sleep=lambda _d: None,
                                  backoff_base=0.0, **kwargs)
        return target, apply, manager

    def test_replays_to_the_same_result(self):
        fuse = CrashFuse(at=4)
        target, apply, manager = self.driver(fuse, interval=2)
        run_with_recovery(list("abcdef"), apply, manager)
        assert target.items == list("abcdef")
        assert fuse.fired == 1
        assert manager.attempts == 1
        # Crashed applying "d" (index 3); newest checkpoint covered 2
        # units, so "c" and the torn "d" were replayed.
        assert manager.replayed_records == 1

    def test_retry_bound_reraises(self):
        fuse = CrashFuse(at=2, times=10)    # refires forever
        _target, apply, manager = self.driver(fuse, interval=1,
                                              max_retries=3)
        with pytest.raises(InjectedCrash):
            run_with_recovery(list("abc"), apply, manager)
        assert manager.attempts == 3        # retried, then gave up
        assert len(manager.backoffs) == 3   # backed off before each retry

    def test_unknown_errors_propagate_without_recovery(self):
        target = Register()

        def apply(unit, _index):
            raise RuntimeError("not injected")

        manager = RecoveryManager(target, interval=1)
        with pytest.raises(RuntimeError):
            run_with_recovery(["a"], apply, manager)
        assert manager.attempts == 0

    def test_unit_size_weights_replay_volume(self):
        fuse = CrashFuse(at=3)
        target, apply, manager = self.driver(fuse, interval=10)
        run_with_recovery([2, 3, 4], apply, manager,
                          unit_size=lambda unit: unit)
        assert target.items == [2, 3, 4]
        assert manager.replayed_records == 5   # units 2 and 3 re-applied


class TestObsIntegration:
    def test_counters_and_span_published_when_enabled(self):
        obs.reset()
        obs.enable()
        try:
            fuse = CrashFuse(at=3)
            target = Register()

            def apply(unit, _index):
                target.apply(unit)
                if fuse.record():
                    raise InjectedCrash("boom")

            manager = RecoveryManager(target, interval=2,
                                      sleep=lambda _d: None,
                                      backoff_base=0.0, label="test")
            run_with_recovery(list("abcd"), apply, manager)
            registry = obs.get_registry()
            assert registry.counter("recovery.attempts",
                                    target="test").value == 1
            assert registry.counter("checkpoint.taken",
                                    target="test").value > 0
            assert registry.counter("checkpoint.bytes",
                                    target="test").value > 0
            assert registry.counter("recovery.replayed_records",
                                    target="test").value == \
                manager.replayed_records
        finally:
            obs.reset()
            obs.disable()

    def test_silent_when_disabled(self):
        manager = RecoveryManager(Register(), interval=1)
        manager.checkpoint(0)
        manager.recover()   # must not touch the registry
        assert manager.attempts == 1



class TestPublishedCountersAcrossAnEngineRecovery:
    """Metrics keep counting across a rollback (``DSMSEngine.snapshot``).

    Three arrivals at one instant, each drained alone, and a crash in the
    third drain, which would checkpoint: the replay re-offers all three
    in one quantum, so the operators roll back below the tallies they
    already published.  Their counters must count the replayed work on
    top, never move backwards.
    """

    QUERY = "SELECT COUNT(*) AS n FROM Obs [Range 1]"

    def run(self, fuse):
        from repro.chaos import install_crash
        from repro.core import Schema
        from repro.dsms import DSMSEngine

        obs.reset()
        obs.enable()
        try:
            engine = DSMSEngine(recovery_interval=3)
            engine.register_stream("Obs", Schema(["id", "room", "temp"]))
            handle = engine.register_query("q", self.QUERY)
            install_crash(handle.query, 0, fuse)
            for drain in range(3):
                if drain == 2:
                    progress = fuse.count
                engine.ingest("Obs", {"id": 0, "room": "a", "temp": None}, 0)
                engine.run_until_idle()
            published = {
                (metric.name, metric.labels["operator"]): metric.value
                for metric in obs.get_registry()
                if metric.name.startswith("exec.operator.records_")}
        finally:
            obs.reset()
        return engine, handle, progress, published

    def test_a_replay_in_coarser_quanta_keeps_counting(self):
        _, clean, progress, _ = self.run(CrashFuse(at=10**6))
        fuse = CrashFuse(at=progress + 1)    # blows in the third drain
        engine, handle, _, counts = self.run(fuse)
        assert fuse.fired == 1 and engine.recovery.attempts == 1
        assert handle.query.current() == clean.query.current()
        for name, op in handle.query.operators():
            # The live tallies rolled back; the published ones keep what
            # they had published and add the replayed work.
            assert counts["exec.operator.records_in", name] >= op.received
            assert counts["exec.operator.records_out", name] >= op.emitted
