"""A Record never enters the engine, and a fleet builds no record class
per query.

A Record is a tuple of its layout's class, and it equals no plain tuple,
so one held in a window or a Bag would miss every probe with a values
tuple: the door takes an own-layout Record in as the plain tuple of its
values.  The record classes are one per field layout, not one per
``Schema`` object, so registering, reading and cancelling queries builds
no more classes than the fleet has layouts — counts, not clocks.
"""

import pytest

import repro.core.records as records_module
from repro.core import Record, Schema
from repro.dsms import DSMSEngine

from cqbench.workloads import QueryFleet

OBS = Schema(["id", "room", "temp"])


def test_an_own_layout_record_is_queued_as_a_plain_tuple():
    # A layout no other test builds, so its class is this schema's own
    # and the door takes the record on its fast path.
    schema = Schema(["id", "room", "temp"], [int, str, float])
    engine = DSMSEngine()
    engine.register_stream("Obs", schema)
    handle = engine.register_query("q", "SELECT id, room FROM Obs [Now]")
    record = Record(schema, (7, "lab", 20.0))
    assert record.schema is schema
    assert engine.ingest("Obs", record, 1) == 1
    t, [(stream, [values])] = handle.queue.poll_instant()
    assert (t, stream) == (1, "Obs")
    assert type(values) is tuple and values == (7, "lab", 20.0)
    handle.queue.offer(values, t, stream)
    engine.run_until_idle()
    (answer,) = handle.store_state()
    assert answer.as_dict() == {"id": 7, "room": "lab"}


@pytest.fixture
def classes_built(monkeypatch):
    """Every record class built, by its layout."""
    built = []
    layout_type = records_module._LayoutType

    def counting(name, bases, namespace):
        schema = namespace["_schema"]
        built.append((schema.fields, schema.types))
        return layout_type(name, bases, namespace)

    monkeypatch.setattr(records_module, "_LayoutType", counting)
    return built


def test_a_churning_fleet_builds_one_record_class_per_layout(
        classes_built):
    engine = DSMSEngine()
    engine.register_stream("Obs", OBS)
    layouts = set()
    for cycle in range(1_000):
        name = f"q{cycle}"
        handle = engine.register_query(
            name, QueryFleet.POOL[cycle % len(QueryFleet.POOL)])
        engine.ingest("Obs", {"id": cycle, "room": cycle % 3,
                              "temp": 30}, cycle + 1)
        engine.run_until_idle()
        assert len(handle.store_state()) > 0
        schema = handle.query.output_schema
        layouts.add((schema.fields, schema.types))
        engine.cancel_query(name)
    assert len(layouts) == 8
    assert len(classes_built) == len(set(classes_built)) <= len(layouts)
