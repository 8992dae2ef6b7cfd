"""One row coercer at every door: a row that does not fit is refused
before anything changes.

Every entry point that takes rows — DSMS ``ingest``, a query's
``push_batch`` and ``update_relation``, a shared group's, the catalog's
relations and the view service's base tables — validates them with the
generated coercer of the layout
(:func:`~repro.cql.kernels.coercer_kernel`), which hands every row it
does not take to :meth:`~repro.core.records.Schema.coerce`.  A Record of
another layout is refused there instead of being re-labelled under the
entry point's field names; and the refusal comes before any row of the
call is staged or stored.
"""

import pytest

from repro.core import Record, Schema, SchemaError
from repro.cql import CQLEngine
from repro.views import DynamicTableService

S = Schema(("id", "temp"), (int, int))
P = Schema(("id", "name"), (int, str))
#: Two values a foreign layout carries: both would fit neither schema's
#: declared types once re-labelled.
FOREIGN = Record(Schema(("x", "y")), ("oops", 50))
TEXT = ("SELECT S.id, S.temp, P.name FROM S [Range 10], P "
        "WHERE S.id = P.id")


def cql(shared=False):
    engine = CQLEngine()
    engine.register_stream("S", S)
    engine.register_relation("P", P, [{"id": 1, "name": "a"}])
    group = engine.shared_group() if shared else None
    query = engine.register_query(TEXT, shared=group)
    query.start()
    query.push_batch(1, {"S": [{"id": 1, "temp": 20}]})
    return engine, query, group


def answer(query):
    return (query.current(), len(query.changelog), query.emissions(),
            query.operator_work)


def push_batch():
    _, query, _ = cql()
    return (lambda: query.push_batch(
        2, {"S": [{"id": 1, "temp": 21}, FOREIGN]}), lambda: answer(query))


def shared_push_batch():
    _, query, group = cql(shared=True)
    return (lambda: group.push_batch(
        2, {"S": [{"id": 1, "temp": 21}, FOREIGN]}), lambda: answer(query))


def update_relation():
    _, query, _ = cql()
    return (lambda: query.update_relation("P", FOREIGN, 1, 2),
            lambda: answer(query))


def shared_update_relation():
    _, query, _ = cql(shared=True)
    return (lambda: query.update_relation("P", FOREIGN, 1, 2),
            lambda: answer(query))


def register_relation():
    engine, _, _ = cql()
    return (lambda: engine.catalog.register_relation(
        "Q", P, [{"id": 2, "name": "b"}, FOREIGN]),
        lambda: engine.catalog.relation_names())


def relation_insert():
    engine, _, _ = cql()
    relation = engine.catalog.relation("P")
    return (lambda: relation.insert(FOREIGN),
            lambda: relation.contents.copy())


def relation_delete():
    engine, _, _ = cql()
    relation = engine.catalog.relation("P")
    return (lambda: relation.delete(Record(Schema(("x", "y")), (1, "a"))),
            lambda: relation.contents.copy())


def service_apply():
    service = DynamicTableService()
    service.create_table("P", P)
    service.apply("P", inserts=[{"id": 1, "name": "a"}], at=1)
    table = service._tables["P"]
    return (lambda: service.apply(
        "P", inserts=[{"id": 2, "name": "b"}, FOREIGN], at=2),
        lambda: (service.read("P"), len(table.changelog), table.version,
                 service.clock))


def dsms_ingest():
    from repro.dsms import DSMSEngine
    engine = DSMSEngine(recovery_interval=4)
    engine.register_stream("S", S)
    handle = engine.register_query("q", "SELECT id FROM S [Range 10]")
    engine.ingest("S", {"id": 1, "temp": 20}, 1)
    return (lambda: engine.ingest("S", FOREIGN, 2),
            lambda: (handle.pending, handle.metrics.ingested,
                     len(engine._arrival_log)))


@pytest.mark.parametrize("door", [
    push_batch, shared_push_batch, update_relation, shared_update_relation,
    register_relation, relation_insert, relation_delete, service_apply,
    dsms_ingest,
], ids=lambda door: door.__name__)
def test_a_record_of_another_layout_is_refused_before_anything_changes(
        door):
    call, observe = door()
    before = observe()
    with pytest.raises(SchemaError, match="does not fit"):
        call()
    assert observe() == before


def test_a_refused_batch_stages_none_of_its_rows():
    _, query, _ = cql()
    with pytest.raises(SchemaError):
        query.push_batch(2, {"S": [{"id": 1, "temp": 21}, FOREIGN]})
    query.push_batch(3, {"S": [{"id": 1, "temp": 22}]})
    _, clean, _ = cql()
    clean.push_batch(3, {"S": [{"id": 1, "temp": 22}]})
    assert query.current() == clean.current()
    assert query.as_relation() == clean.as_relation()


def test_a_record_with_the_right_names_is_type_checked():
    _, query, _ = cql()
    with pytest.raises(SchemaError, match="expects int"):
        query.push_batch(2, {"S": [Record(Schema(("id", "temp")),
                                          ("oops", 50))]})
    query.push_batch(2, {"S": [Record(Schema(("id", "temp")), (1, 50))]})
    assert sorted(r["temp"] for r in query.current()) == [20, 50]


class TestRecordEqualityAtTheAPI:
    """Inside the engine rows are bare values tuples; at the API they
    are Records of the query's output schema again, and Records with
    equal values under different field names stay unequal."""

    def test_equal_values_under_other_names_are_other_rows(self):
        from repro.dsms import DSMSEngine
        engine = DSMSEngine()
        engine.register_stream("S", S)
        ids = engine.register_query("ids", "SELECT id FROM S [Range 10]")
        temps = engine.register_query(
            "temps", "SELECT temp AS id2 FROM S [Range 10]")
        engine.ingest("S", {"id": 7, "temp": 7}, 1)
        engine.run_until_idle()
        (by_id,) = ids.store_state()
        (by_temp,) = temps.store_state()
        assert by_id.values == by_temp.values == (7,)
        assert by_id != by_temp
        assert by_id.schema == ids.query.output_schema
        assert by_temp.schema == temps.query.output_schema
        assert ids.store_state() != temps.store_state()
        assert all(row.schema == ids.query.output_schema
                   for row in engine.store.history("ids").at(1))
