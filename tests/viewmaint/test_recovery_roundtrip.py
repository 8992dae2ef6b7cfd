"""Checkpointing of the InvaliDB-style real-time database.

:class:`RealTimeDatabase` speaks the chaos ``snapshot()``/``restore()``
protocol, so it plugs into :class:`~repro.chaos.recovery.RecoveryManager`
unchanged.  The maintenance spectrum's views are dynamic tables, whose
round trips ``tests/views/test_maintenance_spectrum.py`` checks.
"""

import pytest

from repro.chaos.recovery import RecoveryManager
from repro.core import StateError
from repro.viewmaint import LiveQuery, RealTimeDatabase

pytestmark = pytest.mark.views


class TestRealTimeDatabaseRoundTrip:
    def build(self):
        database = RealTimeDatabase()
        database.subscribe("hot", LiveQuery(lambda doc: doc["temp"] > 20))
        database.put("s1", {"temp": 25})
        database.put("s2", {"temp": 10})
        return database

    def test_round_trip(self):
        database = self.build()
        image = database.snapshot()
        database.put("s3", {"temp": 30})
        database.put("s1", {"temp": 5})
        database.restore(image)
        assert database.query("hot").result_keys() == ["s1"]
        assert database.get("s3") is None

    def test_restore_requires_registered_queries(self):
        image = self.build().snapshot()
        fresh = RealTimeDatabase()
        with pytest.raises(StateError):
            fresh.restore(image)

    def test_recovery_manager_protocol(self):
        database = self.build()
        manager = RecoveryManager(database, interval=1)
        manager.start()
        database.put("s1", {"temp": 1})
        manager.recover()
        assert database.get("s1") == {"temp": 25}
