"""Tests for the Dataflow model pipeline and its runner."""

from collections import Counter

import pytest

import repro.obs as obs
from repro.core import (
    MAX_TIMESTAMP,
    BoundedOutOfOrderness,
    PlanError,
    Watermark,
    WatermarkGenerator,
    WindowError,
)
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

    def test_negative_allowed_lateness_is_rejected(self):
        p = Pipeline()
        source = p.create([("a", 1)]).map(keyed)
        with pytest.raises(WindowError, match="allowed lateness"):
            source.window_into(FixedWindows(10), allowed_lateness=-5)


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


class ScriptedWatermarks(WatermarkGenerator):
    """Marks from a script, one entry per element (``None``: no mark)."""

    def __init__(self, initial, marks):
        self._current = Watermark(initial)
        self._marks = iter(marks)

    def observe(self, timestamp):
        mark = next(self._marks)
        if mark is None:
            return None
        self._current = Watermark(mark)
        return self._current

    def current(self):
        return self._current


class RecordingTrigger(AfterWatermark):
    """The default trigger, noting every watermark it is shown."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_watermark(self, state, window, watermark):
        self.seen.append(watermark)
        return super().on_watermark(state, window, watermark)


class TestRunner:
    """What the runner guarantees: one watermark cell per source that only
    ever rises, GroupByKeys fired after the cell moved, nodes closed in
    pipeline order, and per-node counters with obs on."""

    def test_initial_watermark_of_source_is_honoured(self):
        trigger = RecordingTrigger()
        p = Pipeline()
        (p.create([("a", 0), ("a", 1)],
                  watermark=ScriptedWatermarks(-12, [-12, -11]))
         .map(keyed)
         .window_into(FixedWindows(10), trigger=trigger)
         .combine_per_key(sum).collect("out"))
        result = p.run()
        # A mark equal to the initial one is no advance.
        assert trigger.seen == [-11, MAX_TIMESTAMP]
        assert result.values("out") == [("a", 2)]

    def test_watermark_never_regresses(self):
        trigger = RecordingTrigger()
        p = Pipeline()
        (p.create([("a", 0), ("a", 1), ("a", 2)],
                  watermark=ScriptedWatermarks(-1, [5, 2, None]))
         .map(keyed)
         .window_into(FixedWindows(4), trigger=trigger)
         .combine_per_key(sum).collect("out"))
        result = p.run()
        # The stale mark 2 is ignored: t=2 is judged against 5, so late.
        assert [mark for mark in trigger.seen if mark < MAX_TIMESTAMP] == [5]
        assert result.values("out") == [("a", 1)]
        assert result.dropped_late == 2

    def test_downstream_gbk_fires_upstream_panes_in_the_same_advance(self):
        order = []
        p = Pipeline()
        (p.create([("a", 1), ("a", 3), ("a", 12), ("a", 25)])
         .map(keyed)
         .window_into(FixedWindows(10), allowed_lateness=10)
         .combine_per_key(sum)
         .map(lambda kv: order.append(("up", kv)) or kv)
         .group_by_key()
         .map(lambda kv: order.append(("down", kv)) or kv)
         .collect("out"))
        result = p.run()
        # Each upstream pane is fired downstream before the next advance,
        # the last one, flushed by the end-of-stream advance, included:
        # the downstream cell moves only after the upstream has fired.
        assert order == [("up", ("a", 2)), ("down", ("a", [2])),
                         ("up", ("a", 1)), ("down", ("a", [1])),
                         ("up", ("a", 1)), ("down", ("a", [1]))]
        assert panes(result, "out") == [
            (("a", [2]), 9, ((0, 10),), "ON_TIME", 0),
            (("a", [1]), 19, ((10, 20),), "ON_TIME", 0),
            (("a", [1]), 29, ((20, 30),), "ON_TIME", 0),
        ]
        assert result.dropped_late == 0

    def test_close_runs_in_pipeline_order(self):
        p = Pipeline()
        (p.create([("a", 1), ("a", 2), ("b", 3)])
         .map(keyed)
         .window_into(GlobalWindows(), trigger=Never(), allowed_lateness=2)
         .combine_per_key(sum)
         .group_by_key()
         .collect("out"))
        result = p.run()
        # The upstream GroupByKey flushes on close, before the downstream
        # one force-fires what it received.
        assert panes(result, "out") == [
            (("a", [2]), MAX_TIMESTAMP - 1, ((0, MAX_TIMESTAMP),),
             "ON_TIME", 0),
            (("b", [1]), MAX_TIMESTAMP - 1, ((0, MAX_TIMESTAMP),),
             "ON_TIME", 0),
        ]

    def test_every_node_counts_its_records(self):
        obs.enable()
        p = Pipeline()
        (p.create([("a", 1), ("b", 2), ("a", 12)])
         .map(keyed)
         .window_into(FixedWindows(10))
         .combine_per_key(sum)
         .collect("out"))
        p.run()
        registry = obs.get_registry()

        def count(name, node):
            return registry.get(name, operator=node, layer="dataflow").value

        assert [(count("exec.operator.records_in", node),
                 count("exec.operator.records_out", node))
                for node in ("pardo1", "window2", "gbk3", "sink4")] == \
            [(3, 3), (3, 3), (3, 3), (3, 3)]
        assert registry.get("exec.operator.records_in",
                            operator="source0", layer="dataflow") is None


class TestPaneExpiry:
    """A fixed-window pane the watermark has passed (plus allowed
    lateness) and whose buffer is empty is dropped, so the work of a
    watermark advance does not grow with run length."""

    @staticmethod
    def run(n):
        trigger = RecordingTrigger()
        p = Pipeline()
        (p.create([((f"k{i % 4}", 1), i) for i in range(n)])
         .window_into(FixedWindows(10), trigger=trigger)
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert len(result["out"]) == 4 * n // 10
        return max(Counter(trigger.seen).values())

    def test_panes_held_and_watermark_work_do_not_grow(self, monkeypatch):
        from repro.dataflow import pipeline

        held = []
        close = pipeline._GBKOp.close

        def counting_close(self):
            held.append(len(self.panes))
            close(self)

        monkeypatch.setattr(pipeline._GBKOp, "close", counting_close)
        # on_watermark calls in the busiest advance, then panes at close
        small = self.run(400), held.pop()
        large = self.run(4000), held.pop()
        assert small == large
        assert small[0] <= 8


class TestGroupByKeyBelowGroupByKey:
    """A GroupByKey judges lateness against its own input cell, which
    moves only after the GroupByKeys above it have fired in an advance."""

    def test_upstream_on_time_panes_are_not_late_downstream(self):
        p = Pipeline()
        (p.create([((f"k{i % 4}", i), i) for i in range(40)])
         .window_into(FixedWindows(10))
         .combine_per_key(sum)
         .group_by_key()
         .collect("out"))
        result = p.run()
        assert result.dropped_late == 0
        # 16 upstream panes, each grouped once more downstream.
        assert result.panes_by_timing[PaneTiming.ON_TIME] == 32
        assert sorted((wv.value[0], wv.windows[0].start, wv.value[1])
                      for wv in result["out"]) == sorted(
            (f"k{k}", start, [sum(i for i in range(start, start + 10)
                                  if i % 4 == k)])
            for k in range(4) for start in range(0, 40, 10))
        assert {wv.pane.timing for wv in result["out"]} == \
            {PaneTiming.ON_TIME}

    def test_panes_an_upper_never_trigger_drains_at_close_are_kept(self):
        """The upper GroupByKey fires nothing until close; its buffered
        panes hold the lower cell back, and the lower one moves to the
        end of input only after the upper one has closed."""
        p = Pipeline()
        (p.create([((f"k{i % 2}", i), i) for i in range(10)])
         .window_into(FixedWindows(5), trigger=Never())
         .combine_per_key(sum)
         .group_by_key()
         .collect("out"))
        result = p.run()
        assert result.dropped_late == 0
        assert sorted((wv.value, wv.windows[0].start)
                      for wv in result["out"]) == [
            (("k0", [6]), 0), (("k0", [14]), 5),
            (("k1", [4]), 0), (("k1", [21]), 5)]


class TestSessionPaneExpiry:
    """A session pane no element that is not late can merge into any
    more is dropped, so neither the panes held nor the windows a new
    element is merged against grow with run length."""

    @staticmethod
    def run(n, monkeypatch):
        from repro.dataflow import pipeline

        scanned, held = [], []

        class CountingSessions(Sessions):
            def merge(self, windows):
                scanned.append(len(windows))
                return super().merge(windows)

        close = pipeline._GBKOp.close

        def counting_close(self):
            held.append(len(self.panes))
            close(self)

        monkeypatch.setattr(pipeline._GBKOp, "close", counting_close)
        p = Pipeline()
        (p.create([((f"k{i % 4}", 1), 3 * i) for i in range(n)])
         .window_into(CountingSessions(2))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert len(result["out"]) == n
        return max(scanned), held.pop()

    def test_panes_held_and_windows_scanned_do_not_grow(self, monkeypatch):
        small = self.run(400, monkeypatch)
        large = self.run(4000, monkeypatch)
        assert small == large
        assert small[0] <= 3

    def test_a_fired_session_still_merges_what_can_reach_it(self):
        # [0,4) fires at watermark 6, but t=4 is not late until
        # watermark 7 and touches it, so the pane must still be there.
        p = Pipeline()
        (p.create([(("a", 1), t) for t in (0, 10, 4, 30)],
                  watermark=BoundedOutOfOrderness(3))
         .window_into(Sessions(4))
         .combine_per_key(sum).collect("out"))
        result = p.run()
        assert panes(result, "out") == [
            (("a", 1), 3, ((0, 4),), "ON_TIME", 0),
            (("a", 1), 7, ((0, 8),), "ON_TIME", 1),
            (("a", 1), 13, ((10, 14),), "ON_TIME", 0),
            (("a", 1), 33, ((30, 34),), "ON_TIME", 0),
        ]
        assert result.dropped_late == 0
