"""The min-combine watermark tracker and its idle channels.

An idle channel is excluded from the minimum, so one silent input cannot
hold event time back; ``runtime/job.py`` idles a subtask's input channel
once it has ended.
"""

from repro.exec import WatermarkTracker


class TestWatermarkTracker:
    def test_advance_and_min_combine(self):
        tracker = WatermarkTracker(["a", "b"])
        assert tracker.advance("a", 5) is None
        assert tracker.advance("b", 3) == 3
        assert tracker.advance("b", 9) == 5
        assert tracker.combined == 5

    def test_non_increasing_updates_ignored(self):
        tracker = WatermarkTracker(["a"])
        assert tracker.advance("a", 5) == 5
        assert tracker.advance("a", 5) is None
        assert tracker.advance("a", 4) is None

    def test_all_idle_holds_the_watermark(self):
        tracker = WatermarkTracker(["a", "b"])
        tracker.advance("a", 4)
        assert tracker.mark_idle("a") is None
        assert tracker.mark_idle("b") is None  # all idle: hold, don't jump
        assert tracker.combined == -1

    def test_initials_mapping(self):
        tracker = WatermarkTracker(["a", "b"], initials={"a": -7, "b": 2})
        assert tracker.combined == -7
        assert tracker.advance("a", 0) == 0
