"""Tests for the Dataflow model pipeline and its runner."""

import pytest

from repro.core import BoundedOutOfOrderness, PlanError
from repro.dataflow import (
    AccumulationMode,
    AfterCount,
    AfterProcessingTime,
    AfterWatermark,
    FixedWindows,
    GlobalWindows,
    Never,
    PaneTiming,
    Pipeline,
    Repeatedly,
    Sessions,
    SlidingWindows,
)


def keyed(value):
    return (value, 1)


class TestParDo:
    def test_map_filter_flatmap(self):
        p = Pipeline()
        (p.create([(1, 0), (2, 1), (3, 2)])
         .map(lambda v: v * 10)
         .filter(lambda v: v > 10)
         .flat_map(lambda v: [v, v + 1])
         .collect("out"))
        result = p.run()
        assert result.values("out") == [20, 21, 30, 31]

    def test_pardo_preserves_timestamps(self):
        p = Pipeline()
        p.create([("x", 7)]).map(str.upper).collect("out")
        result = p.run()
        assert result["out"][0].timestamp == 7


class TestFixedWindows:
    def test_counts_per_window(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 5), ("a", 12), ("b", 13)])
         .map(keyed)
         .window_into(FixedWindows(10))
         .combine_per_key(sum)
         .collect("counts"))
        result = p.run()
        out = {(wv.value[0], wv.windows[0].start): wv.value[1]
               for wv in result["counts"]}
        assert out == {("a", 0): 2, ("a", 10): 1, ("b", 10): 1}

    def test_on_time_panes_fire_at_watermark(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 15)])  # watermark passes 10 on the 2nd
         .map(keyed)
         .window_into(FixedWindows(10))
         .group_by_key()
         .collect("out"))
        result = p.run()
        first = result["out"][0]
        assert first.pane.timing is PaneTiming.ON_TIME
        assert first.windows[0].start == 0

    def test_output_timestamp_is_window_max(self):
        p = Pipeline()
        (p.create([("a", 3)]).map(keyed)
         .window_into(FixedWindows(10)).group_by_key().collect("out"))
        result = p.run()
        assert result["out"][0].timestamp == 9


class TestSlidingWindows:
    def test_element_lands_in_overlapping_windows(self):
        p = Pipeline()
        (p.create([("a", 7)]).map(keyed)
         .window_into(SlidingWindows(10, 5))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        starts = sorted(wv.windows[0].start for wv in result["out"])
        assert starts == [0, 5]


class TestSessions:
    def test_nearby_elements_merge(self):
        p = Pipeline()
        (p.create([("a", 0), ("a", 3), ("a", 20)]).map(keyed)
         .window_into(Sessions(gap=5))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        sessions = sorted((wv.windows[0].start, wv.windows[0].end,
                           wv.value[1]) for wv in result["out"])
        assert sessions == [(0, 8, 2), (20, 25, 1)]

    def test_sessions_are_per_key(self):
        p = Pipeline()
        (p.create([("a", 0), ("b", 2)]).map(keyed)
         .window_into(Sessions(gap=5))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert len(result["out"]) == 2

    def test_bridging_element_merges_two_sessions(self):
        p = Pipeline()
        # t=5 arrives out of order and bridges the sessions at 0 and 10;
        # the watermark slack keeps it from being declared late.
        (p.create([("a", 0), ("a", 10), ("a", 5)],
                  watermark=BoundedOutOfOrderness(bound=20))
         .map(keyed)
         .window_into(Sessions(gap=6))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        (only,) = result["out"]
        assert only.value == ("a", 3)
        assert (only.windows[0].start, only.windows[0].end) == (0, 16)


class TestTriggers:
    def test_after_count_fires_early_panes(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 2), ("a", 3), ("a", 4)])
         .map(keyed)
         .window_into(FixedWindows(100),
                      trigger=AfterWatermark(early=Repeatedly(
                          AfterCount(2))))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        timings = [wv.pane.timing for wv in result["out"]]
        assert timings.count(PaneTiming.EARLY) == 2
        assert result.panes_by_timing[PaneTiming.EARLY] == 2

    def test_discarding_vs_accumulating(self):
        def build(mode):
            p = Pipeline()
            (p.create([("a", 1), ("a", 2), ("a", 3)])
             .map(keyed)
             .window_into(FixedWindows(100),
                          trigger=AfterWatermark(early=Repeatedly(
                              AfterCount(1))),
                          accumulation=mode)
             .combine_per_key(sum).collect("out"))
            return [wv.value[1] for wv in p.run()["out"]]

        # Discarding: each early pane carries only its own element, and
        # the final on-time pane is empty so it never fires.
        assert build(AccumulationMode.DISCARDING) == [1, 1, 1]
        # Accumulating: early panes refine (1, 2, 3) and the on-time pane
        # re-emits the full accumulation — Beam's refinement semantics.
        assert build(AccumulationMode.ACCUMULATING) == [1, 2, 3, 3]

    def test_after_processing_time(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 2), ("a", 3), ("a", 4)])
         .map(keyed)
         .window_into(GlobalWindows(),
                      trigger=Repeatedly(AfterProcessingTime(2)))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        # First pane fires two arrivals after the first element.
        assert result["out"][0].value == ("a", 3)

    def test_never_trigger_fires_only_at_end(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 50)])
         .map(keyed)
         .window_into(FixedWindows(10), trigger=Never())
         .combine_per_key(sum).collect("out"))
        result = p.run()
        # Nothing fires mid-stream; everything appears at finalisation.
        assert sorted(wv.value for wv in result["out"]) == \
            [("a", 1), ("a", 1)]

    def test_pane_indexes_increase(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 2), ("a", 3)])
         .map(keyed)
         .window_into(GlobalWindows(),
                      trigger=Repeatedly(AfterCount(1)))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert [wv.pane.index for wv in result["out"]] == [0, 1, 2]


class TestOutOfOrderAndLateness:
    def test_late_data_dropped_without_allowed_lateness(self):
        p = Pipeline()
        # Arrival order: 1, 25 (watermark -> 24), then 2 is late for [0,10).
        (p.create([("a", 1), ("a", 25), ("a", 2)])
         .map(keyed)
         .window_into(FixedWindows(10))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert result.dropped_late == 1
        window0 = [wv for wv in result["out"] if wv.windows[0].start == 0]
        assert window0[0].value == ("a", 1)

    def test_allowed_lateness_admits_late_pane(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 25), ("a", 2)])
         .map(keyed)
         .window_into(FixedWindows(10), allowed_lateness=100)
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert result.dropped_late == 0
        window0 = [wv for wv in result["out"] if wv.windows[0].start == 0]
        assert [wv.pane.timing for wv in window0] == \
            [PaneTiming.ON_TIME, PaneTiming.LATE]

    def test_bounded_out_of_orderness_keeps_stragglers_on_time(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 12), ("a", 8)],
                  watermark=BoundedOutOfOrderness(bound=5))
         .map(keyed)
         .window_into(FixedWindows(10))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        window0 = [wv for wv in result["out"] if wv.windows[0].start == 0]
        # With slack 5 the watermark held back, so t=8 made the on-time pane.
        assert window0[0].value == ("a", 2)
        assert result.dropped_late == 0


def panes(result, label):
    """Every output pane in emission order, with its full metadata."""
    return [(wv.value, wv.timestamp,
             tuple((w.start, w.end) for w in wv.windows),
             wv.pane.timing.name, wv.pane.index)
            for wv in result[label]]


class TestPinnedOutput:
    """Exact output — values, timestamps, windows, pane timing and index,
    lateness and firing counts — of two out-of-order pipelines."""

    def test_fixed_windows_with_late_data(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 5), ("b", 12), ("a", 13), ("b", 2),
                   ("a", 25), ("b", 26)],
                  watermark=BoundedOutOfOrderness(3))
         .map(keyed)
         .window_into(FixedWindows(10))
         .group_by_key()
         .collect("out"))
        result = p.run()
        # ("b", 2) arrives once ("a", 13) has moved the watermark to 9,
        # closing [0, 10): dropped late.
        assert panes(result, "out") == [
            (("a", [1, 1]), 9, ((0, 10),), "ON_TIME", 0),
            (("a", [1]), 19, ((10, 20),), "ON_TIME", 0),
            (("b", [1]), 19, ((10, 20),), "ON_TIME", 0),
            (("a", [1]), 29, ((20, 30),), "ON_TIME", 0),
            (("b", [1]), 29, ((20, 30),), "ON_TIME", 0),
        ]
        assert result.dropped_late == 1
        assert dict(result.panes_by_timing) == {PaneTiming.ON_TIME: 5}

    def test_sessions_with_early_firings(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 3), ("b", 20), ("a", 22), ("a", 24)],
                  watermark=BoundedOutOfOrderness(2))
         .map(keyed)
         .window_into(Sessions(5),
                      trigger=AfterWatermark(early=Repeatedly(AfterCount(1))),
                      accumulation=AccumulationMode.ACCUMULATING)
         .combine_per_key(sum)
         .collect("out"))
        result = p.run()
        assert panes(result, "out") == [
            (("a", 1), 5, ((1, 6),), "EARLY", 0),
            (("a", 2), 7, ((1, 8),), "EARLY", 1),
            (("b", 1), 24, ((20, 25),), "EARLY", 0),
            (("a", 2), 7, ((1, 8),), "ON_TIME", 2),
            (("a", 1), 26, ((22, 27),), "EARLY", 0),
            (("a", 2), 28, ((22, 29),), "EARLY", 1),
            (("b", 1), 24, ((20, 25),), "ON_TIME", 1),
            (("a", 2), 28, ((22, 29),), "ON_TIME", 2),
        ]
        assert result.dropped_late == 0
        assert dict(result.panes_by_timing) == {PaneTiming.EARLY: 5,
                                                PaneTiming.ON_TIME: 3}


class TestValidation:
    def test_gbk_requires_pairs(self):
        p = Pipeline()
        p.create([(1, 0)]).group_by_key().collect("out")
        with pytest.raises(PlanError, match="key, value"):
            p.run()

    def test_multiple_outputs(self):
        p = Pipeline()
        source = p.create([(1, 0), (2, 1)])
        source.map(lambda v: v + 1).collect("plus")
        source.map(lambda v: v * 2).collect("times")
        result = p.run()
        assert result.values("plus") == [2, 3]
        assert result.values("times") == [2, 4]
