"""Stream progress at the DSMS door: each stream's watermark (the newest
timestamp ``ingest`` admitted) and the processing lag the service
publishes under ``dsms.watermark.*`` while obs is on."""

import repro.obs as obs
from repro.core import Schema
from repro.dsms import DSMSEngine

SCHEMA = Schema(["v"])


def make_engine(*streams, query=True):
    """An engine over ``streams``; with ``query``, one standing query
    reads each of them."""
    engine = DSMSEngine()
    for name in streams:
        engine.register_stream(name, SCHEMA)
        if query:
            engine.register_query(f"q_{name}",
                                  f"SELECT v FROM {name} [Range 100]")
    return engine


def feed(engine, stream, *timestamps):
    for t in timestamps:
        engine.ingest(stream, {"v": t}, t)


def lag_gauge(stream):
    return obs.get_registry().get("dsms.watermark.lag", stream=stream)


class TestWatermark:
    def test_watermark_is_high_water_mark(self):
        # No query reads the stream, so nothing refuses the out-of-order
        # arrival; it is admitted and does not regress the watermark.
        engine = make_engine("s", query=False)
        feed(engine, "s", 10, 20, 5)
        assert engine.watermark("s") == 20

    def test_streams_are_independent(self):
        engine = make_engine("a", "b")
        feed(engine, "b", 7)
        feed(engine, "a", 3)   # behind b, but no unit reads both
        assert engine.watermark("a") == 3
        assert engine.watermark("b") == 7

    def test_unseen_stream(self):
        # A stream that has produced nothing yet (the crash-recovered
        # source case) has no watermark and *no* lag — None and no
        # metric, never a KeyError and never a fake 0.0.
        obs.enable()
        engine = make_engine("s")
        engine.run_until_idle()
        assert engine.watermark("s") is None
        assert engine.watermark("nope") is None
        assert lag_gauge("s") is None

    def test_recovered_source_lag_defined_before_first_record(self):
        obs.enable()
        engine = make_engine("live", "recovered")
        feed(engine, "live", 10)
        engine.run_until_idle()
        # A second source registered beside it but still silent.
        assert engine.watermark("recovered") is None
        assert lag_gauge("recovered") is None
        assert (engine.watermark("live"), lag_gauge("live").value) == (10, 0)
        feed(engine, "recovered", 12, 14)
        engine.run_until_idle()
        assert lag_gauge("recovered").max == 2

    def test_event_time_gauge_published(self):
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 42)
        engine.run_until_idle()
        gauge = obs.get_registry().get("dsms.watermark.event_time",
                                       stream="s")
        assert gauge.value == 42


class TestLag:
    def test_fresh_record_has_zero_lag(self):
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 10)
        engine.run_until_idle()
        assert lag_gauge("s").value == 0

    def test_stale_record_lags_by_watermark_delta(self):
        # Arrivals are queued, so a later one advances the watermark past
        # an earlier one before the earlier is serviced.
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 10, 25)
        assert engine.step()
        assert lag_gauge("s").value == 15

    def test_lag_floors_at_zero(self):
        # An instant evaluated past the watermark (an advance) is not a
        # negative lag: the lag is observed only for serviced arrivals.
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 5)
        engine.advance_time(9)
        feed(engine, "s", 9)
        engine.run_until_idle()
        assert lag_gauge("s").min == 0

    def test_lag_metrics_published(self):
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 4, 8, 10)
        engine.run_until_idle()
        gauge = lag_gauge("s")
        assert gauge.count == 3
        assert gauge.max == 6
        histogram = obs.get_registry().get("dsms.watermark.lag_histogram",
                                           stream="s")
        assert histogram.count == 3
        assert histogram.quantile(0.5) == 2.0

    def test_as_dict(self):
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 7, 10)
        engine.step()
        assert (engine.watermark("s"), lag_gauge("s").value) == (10, 3)

    def test_custom_prefix(self):
        # The engine publishes its progress under ``dsms.watermark``.
        obs.enable()
        engine = make_engine("s")
        feed(engine, "s", 1)
        engine.run_until_idle()
        names = {metric.name for metric in obs.get_registry()}
        assert {"dsms.watermark.lag", "dsms.watermark.lag_histogram",
                "dsms.watermark.event_time"} <= names
