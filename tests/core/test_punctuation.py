"""Tests for watermarks and punctuations."""

import pytest

from repro.core import (
    FINAL_WATERMARK,
    AscendingWatermarks,
    BoundedOutOfOrderness,
    PeriodicWatermarks,
    Punctuation,
    Watermark,
)


class TestWatermark:
    def test_ordering(self):
        assert Watermark(5) < Watermark(6)

    def test_final(self):
        assert FINAL_WATERMARK.is_final
        assert not Watermark(100).is_final


class TestAscending:
    def test_trails_max_by_one(self):
        gen = AscendingWatermarks()
        assert gen.observe(10) == Watermark(9)
        assert gen.observe(12) == Watermark(11)

    def test_no_emission_on_stale_timestamp(self):
        gen = AscendingWatermarks()
        gen.observe(10)
        assert gen.observe(5) is None
        assert gen.current() == Watermark(9)

    def test_initial_current(self):
        assert AscendingWatermarks().current() == Watermark(-1)


class TestBoundedOutOfOrderness:
    def test_watermark_lags_by_bound(self):
        gen = BoundedOutOfOrderness(bound=3)
        assert gen.observe(10) == Watermark(6)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            BoundedOutOfOrderness(bound=-1)

    def test_late_element_does_not_regress_watermark(self):
        gen = BoundedOutOfOrderness(bound=0)
        gen.observe(10)
        gen.observe(3)
        assert gen.current() == Watermark(9)


class TestPeriodic:
    def test_emits_every_period(self):
        gen = PeriodicWatermarks(AscendingWatermarks(), period=3)
        assert gen.observe(1) is None
        assert gen.observe(2) is None
        assert gen.observe(3) == Watermark(2)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicWatermarks(AscendingWatermarks(), period=0)


class TestPunctuation:
    def test_predicate_scope(self):
        punct = Punctuation(
            describes=lambda v: v["room"] == 42, label="room-42-done")
        assert punct.matches({"room": 42})
        assert not punct.matches({"room": 7})
