"""Tests for fissioned GroupByKey execution in the dataflow frontend."""

import pytest

from repro.core import BoundedOutOfOrderness, PlanError
from repro.dataflow import (
    AccumulationMode,
    AfterCount,
    AfterWatermark,
    FixedWindows,
    Pipeline,
    Repeatedly,
    Sessions,
)

ELEMENTS = [("a", 1), ("b", 2), ("a", 5), ("c", 7), ("b", 12),
            ("a", 13), ("d", 14), ("c", 18), ("b", 21), ("a", 22)]


def counting_pipeline(**window_kwargs):
    p = Pipeline()
    (p.create(ELEMENTS, watermark=BoundedOutOfOrderness(2))
     .map(lambda v: (v, 1))
     .window_into(FixedWindows(10), **window_kwargs)
     .combine_per_key(sum)
     .collect("counts"))
    return p


def pane_set(result, label="counts"):
    """Order-independent view: fissioned replicas drain their own keys,
    so panes within one watermark firing may interleave differently."""
    return sorted((wv.value, wv.timestamp, wv.windows, wv.pane.timing,
                   wv.pane.index) for wv in result[label])


class TestFissionedGBK:
    def test_panes_match_serial(self):
        serial = counting_pipeline().run()
        fissioned = counting_pipeline().run(parallelism=3)
        assert pane_set(fissioned) == pane_set(serial)
        assert fissioned.dropped_late == serial.dropped_late
        assert dict(fissioned.panes_by_timing) \
            == dict(serial.panes_by_timing)

    def test_parallelism_one_is_identity(self):
        serial = counting_pipeline().run()
        same = counting_pipeline().run(parallelism=1)
        assert [wv.value for wv in same["counts"]] \
            == [wv.value for wv in serial["counts"]]

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_nonpositive_parallelism_rejected(self, parallelism):
        with pytest.raises(PlanError, match="parallelism"):
            counting_pipeline().run(parallelism=parallelism)

    def test_early_firings_match(self):
        kwargs = dict(
            trigger=Repeatedly(AfterCount(2)),
            accumulation=AccumulationMode.ACCUMULATING)
        serial = counting_pipeline(**kwargs).run()
        fissioned = counting_pipeline(**kwargs).run(parallelism=4)
        assert pane_set(fissioned) == pane_set(serial)

    def test_sessions_merge_within_replica(self):
        def sessions_pipeline():
            p = Pipeline()
            (p.create([("u1", 1), ("u2", 2), ("u1", 3), ("u1", 11),
                       ("u2", 4), ("u1", 30)])
             .map(lambda v: (v, 1))
             .window_into(Sessions(gap=5))
             .combine_per_key(sum)
             .collect("sessions"))
            return p

        serial = sessions_pipeline().run()
        fissioned = sessions_pipeline().run(parallelism=2)
        assert pane_set(fissioned, "sessions") == pane_set(serial,
                                                           "sessions")

    def test_late_data_dropped_identically(self):
        def late_pipeline():
            p = Pipeline()
            (p.create([("a", 1), ("b", 22), ("a", 2)],  # ("a", 2) is late
                      watermark=BoundedOutOfOrderness(0))
             .map(lambda v: (v, 1))
             .window_into(FixedWindows(10),
                          trigger=AfterWatermark())
             .combine_per_key(sum)
             .collect("out"))
            return p

        serial = late_pipeline().run()
        fissioned = late_pipeline().run(parallelism=3)
        assert fissioned.dropped_late == serial.dropped_late == 1
        assert pane_set(fissioned, "out") == pane_set(serial, "out")

    def test_non_pair_input_rejected(self):
        p = Pipeline()
        (p.create([(1, 0)])
         .window_into(FixedWindows(10))
         .group_by_key()
         .collect("out"))
        with pytest.raises(PlanError):
            p.run(parallelism=2)
