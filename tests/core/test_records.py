"""Tests for schemas and records."""

import copy
import pickle

import pytest

from repro.core import Record, Schema, SchemaError, records_from_dicts
from repro.core.relation import Bag


@pytest.fixture
def person_schema():
    return Schema(["id", "name", "age"], [int, str, int])


class TestSchema:
    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_type_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Schema(["a", "b"], [int])

    def test_index_of_exact(self, person_schema):
        assert person_schema.index_of("name") == 1

    def test_index_of_suffix_resolution(self):
        schema = Schema(["P.id", "P.name"])
        assert schema.index_of("id") == 0

    def test_index_of_ambiguous(self):
        schema = Schema(["P.id", "O.id"])
        with pytest.raises(SchemaError, match="ambiguous"):
            schema.index_of("id")

    def test_index_of_unknown(self, person_schema):
        with pytest.raises(SchemaError, match="unknown"):
            person_schema.index_of("salary")

    def test_contains(self, person_schema):
        assert "name" in person_schema
        assert "salary" not in person_schema

    def test_qualify(self, person_schema):
        qualified = person_schema.qualify("P")
        assert qualified.fields == ("P.id", "P.name", "P.age")
        # Already-qualified fields are untouched.
        assert qualified.qualify("Q").fields == qualified.fields

    def test_unqualified(self):
        schema = Schema(["P.id", "P.name"]).unqualified()
        assert schema.fields == ("id", "name")

    def test_concat(self, person_schema):
        other = Schema(["city"])
        assert person_schema.concat(other).fields == (
            "id", "name", "age", "city")

    def test_project_preserves_types(self, person_schema):
        projected = person_schema.project(["age", "id"])
        assert projected.fields == ("age", "id")
        assert projected.types == (int, int)

    def test_validate_arity(self, person_schema):
        with pytest.raises(SchemaError):
            person_schema.validate((1, "x"))

    def test_validate_types(self, person_schema):
        with pytest.raises(SchemaError):
            person_schema.validate(("oops", "x", 3))

    def test_validate_accepts_none_values(self, person_schema):
        person_schema.validate((1, None, None))

    def test_coerce_reads_a_mapping_in_field_order(self, person_schema):
        assert person_schema.coerce(
            {"age": 36, "name": "ada", "id": 1, "extra": 0}) == (1, "ada", 36)
        with pytest.raises(SchemaError, match="missing fields"):
            person_schema.coerce({"id": 1})
        with pytest.raises(SchemaError, match="expects int"):
            person_schema.coerce({"id": "1", "name": "ada", "age": 36})

    def test_coerce_takes_its_own_records_as_they_are(self, person_schema):
        own = Record(person_schema, (1, "ada", 36))
        coerced = person_schema.coerce(own)
        assert type(coerced) is tuple and coerced == own.values

    def test_coerce_checks_a_record_of_another_schema(self, person_schema):
        same_names = Schema(["id", "name", "age"])
        assert person_schema.coerce(
            Record(same_names, (1, "ada", 36))) == (1, "ada", 36)
        with pytest.raises(SchemaError, match="expects int"):
            person_schema.coerce(Record(same_names, ("one", "ada", 36)))
        with pytest.raises(SchemaError, match="does not fit"):
            person_schema.coerce(
                Record(Schema(["x", "y", "z"]), (1, "ada", 36)))

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))
        assert Schema(["a"]) != Schema(["b"])


class TestRecord:
    def test_access_by_name_and_index(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record["name"] == "ada"
        assert record[0] == 1

    def test_from_mapping(self, person_schema):
        record = Record.from_mapping(
            person_schema, {"id": 1, "name": "ada", "age": 36})
        assert record.values == (1, "ada", 36)

    def test_from_mapping_missing_field(self, person_schema):
        with pytest.raises(SchemaError, match="missing"):
            Record.from_mapping(person_schema, {"id": 1})

    def test_get_with_default(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record.get("salary", 0) == 0

    def test_equality_depends_on_field_names(self):
        a = Record(Schema(["x"]), (1,))
        b = Record(Schema(["y"]), (1,))
        assert type(a) is not type(b)
        assert a != b and not a == b
        assert a == Record(Schema(["x"]), (1,))

    def test_hashable(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record in {record}

    def test_equal_records_on_distinct_equal_schemas_hash_equal(self):
        # Equal field names, other declared types: two layouts.
        a = Record(Schema(["x", "y"]), (1, "a"))
        b = Record(Schema(["x", "y"], [int, str]), (1, "a"))
        assert type(a) is not type(b)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_same_values_under_other_names_stay_apart_in_a_bag(self):
        a = Record(Schema(["x"]), (1,))
        b = Record(Schema(["y"]), (1,))
        # The hash reads the values alone, so these collide; equality
        # still compares the field names and keeps them apart.
        assert hash(a) == hash(b) and a != b
        bag = Bag()
        bag.add(a)
        bag.add(b, 2)
        assert bag.support_size == 2
        assert bag.count(a) == 1 and bag.count(b) == 2

    def test_project(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record.project(["name"]).values == ("ada",)

    def test_concat(self):
        left = Record(Schema(["a"]), (1,))
        right = Record(Schema(["b"]), (2,))
        combined = left.concat(right)
        assert combined.values == (1, 2)
        assert combined.schema.fields == ("a", "b")

    def test_key(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record.key(["age", "id"]) == (36, 1)

    def test_as_dict(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert record.as_dict() == {"id": 1, "name": "ada", "age": 36}

    def test_with_schema_relabels(self):
        record = Record(Schema(["a"]), (1,))
        relabeled = record.with_schema(Schema(["b"]))
        assert relabeled["b"] == 1

    def test_with_schema_arity_checked(self):
        record = Record(Schema(["a"]), (1,))
        with pytest.raises(SchemaError):
            record.with_schema(Schema(["b", "c"]))

    def test_copies_share_the_immutable_record(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert copy.copy(record) is record
        assert copy.deepcopy(record) is record
        assert copy.deepcopy([record])[0] is record

    def test_records_from_dicts(self, person_schema):
        rows = [{"id": 1, "name": "ada", "age": 36},
                {"id": 2, "name": "bob", "age": 41}]
        records = records_from_dicts(person_schema, rows)
        assert [r["name"] for r in records] == ["ada", "bob"]


class TestARowIsATuple:
    """A Record is a ``tuple`` of its values, of its layout's class."""

    def test_a_record_never_equals_a_plain_tuple(self):
        record = Record(Schema(["a", "b"]), (1, "x"))
        assert record != (1, "x") and (1, "x") != record
        assert not record == (1, "x") and not (1, "x") == record
        # Equal hashes, so the dict compares them, and keeps both.
        assert hash(record) == hash((1, "x"))
        assert len({record: 1, (1, "x"): 2}) == 2

    def test_records_are_unordered(self):
        schema = Schema(["a"])
        records = [Record(schema, (2,)), Record(schema, (1,))]
        with pytest.raises(TypeError):
            sorted(records)
        for left, right in [(records[0], (1,)), ((1,), records[0])]:
            with pytest.raises(TypeError):
                left < right  # noqa: B015
            with pytest.raises(TypeError):
                left >= right  # noqa: B015

    def test_values_is_exactly_a_tuple(self, person_schema):
        record = Record(person_schema, [1, "ada", 36])
        assert isinstance(record, tuple)
        assert type(record.values) is tuple
        assert record.values == (1, "ada", 36)

    def test_pickles_round_trip(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        loaded = pickle.loads(pickle.dumps(record))
        assert loaded == record and type(loaded) is type(record)
        assert loaded.schema == person_schema
        assert loaded.schema.types == person_schema.types

    def test_one_class_per_layout(self, person_schema):
        same = Schema(["id", "name", "age"], [int, str, int])
        untyped = Schema(["id", "name", "age"])
        assert same.record_type is person_schema.record_type
        assert untyped.record_type is not person_schema.record_type
        record = Record(same, (1, "ada", 36))
        assert type(record) is person_schema.record_type
        assert record.schema == same

    def test_the_tuple_reads_as_the_record_did(self, person_schema):
        record = Record(person_schema, (1, "ada", 36))
        assert repr(record) == "Record(id=1, name='ada', age=36)"
        assert str(record) == repr(record)
        assert type(record[1:]) is tuple and record[1:] == ("ada", 36)
        assert len(record) == 3 and list(record) == [1, "ada", 36]
