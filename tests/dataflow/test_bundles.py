"""Bundle execution on the kernel runner (Dataflow micro-batching).

Bundles group consecutive same-channel elements into one ``push_batch``;
a bundle always flushes before the watermark advances, so pane timing,
membership and accumulation are identical to per-element execution —
except under processing-time triggers, whose firing point depends on the
arrival index, so the runner clamps the bundle size back to 1.
"""

import pytest

from repro.dataflow import (
    AfterAny,
    AfterCount,
    AfterProcessingTime,
    AfterWatermark,
    FixedWindows,
    Never,
    Pipeline,
    Repeatedly,
)
from repro.dataflow.pipeline import _arrival_sensitive, _KernelRunner

ELEMS = [(f"k{i % 3}", t) for i, t in enumerate(
    [1, 2, 3, 8, 9, 11, 12, 15, 18, 22, 23, 29, 31, 35])]


def panes(trigger=None, bundle_size=1, parallelism=1):
    p = Pipeline()
    (p.create(ELEMS)
     .map(lambda v: (v, 1))
     .window_into(FixedWindows(10), **({"trigger": trigger} if trigger else {}))
     .group_by_key()
     .collect("out"))
    result = p.run(bundle_size=bundle_size, parallelism=parallelism)
    return sorted(
        (wv.value, wv.timestamp, tuple(wv.windows), wv.pane.timing,
         wv.pane.index)
        for wv in result["out"])


class TestBundleParity:
    @pytest.mark.parametrize("size", [2, 4, 16, 100])
    def test_default_trigger_panes_match_per_element(self, size):
        assert panes(bundle_size=size) == panes(bundle_size=1)

    @pytest.mark.parametrize("size", [3, 8])
    def test_aftercount_trigger_panes_match(self, size):
        trig = Repeatedly(AfterCount(2))
        assert panes(trig, bundle_size=size) == panes(trig, bundle_size=1)

    def test_early_firing_watermark_trigger_matches(self):
        trig = AfterWatermark(early=AfterCount(1))
        assert panes(trig, bundle_size=8) == panes(trig, bundle_size=1)

    def test_never_trigger_matches(self):
        assert panes(Never(), bundle_size=4) == panes(Never(), bundle_size=1)

    def test_bundles_compose_with_fission(self):
        assert panes(bundle_size=8, parallelism=2) == panes(bundle_size=1)


class TestArrivalSensitivity:
    def test_processing_time_trigger_clamps_bundles(self):
        p = Pipeline()
        (p.create(ELEMS).map(lambda v: (v, 1))
         .window_into(FixedWindows(10),
                      trigger=Repeatedly(AfterProcessingTime(5)))
         .group_by_key().collect("out"))
        runner = _KernelRunner(p, bundle_size=16)
        assert runner.bundle_size == 1

    def test_watermark_trigger_keeps_bundles(self):
        p = Pipeline()
        (p.create(ELEMS).map(lambda v: (v, 1))
         .window_into(FixedWindows(10), trigger=AfterWatermark())
         .group_by_key().collect("out"))
        assert _KernelRunner(p, bundle_size=16).bundle_size == 16

    def test_detection_recurses_through_composites(self):
        assert _arrival_sensitive(AfterProcessingTime(5))
        assert _arrival_sensitive(Repeatedly(AfterProcessingTime(5)))
        assert _arrival_sensitive(
            AfterAny(AfterCount(3), AfterProcessingTime(5)))
        assert _arrival_sensitive(
            AfterWatermark(early=AfterProcessingTime(5)))
        assert _arrival_sensitive(
            AfterWatermark(late=AfterProcessingTime(5)))
        assert not _arrival_sensitive(AfterWatermark(early=AfterCount(2)))
        assert not _arrival_sensitive(Repeatedly(AfterCount(2)))

    def test_clamped_run_still_matches_per_element(self):
        trig = Repeatedly(AfterProcessingTime(5))
        assert panes(trig, bundle_size=16) == panes(trig, bundle_size=1)


class TestRunnerGuards:
    def test_bundle_size_one_is_the_default(self):
        p = Pipeline()
        p.create([("a", 1)]).map(str.upper).collect("out")
        assert p.run(bundle_size=1).values("out") == ["A"]
