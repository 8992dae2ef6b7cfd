"""The query catalog: named streams and relations.

The DSMS-era systems the paper surveys (STREAM, TelegraphCQ...) all pair a
query language with a catalog of registered sources.  Ours maps names to
stream definitions (schema only — contents arrive at runtime) and relation
definitions (schema plus current contents, updatable to model slowly
changing reference tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.errors import PlanError, SchemaError
from repro.core.records import Record, Schema
from repro.core.relation import Bag


@dataclass(frozen=True)
class StreamDef:
    """A registered stream: a name and a schema."""

    name: str
    schema: Schema

    def coerce(self, row: Mapping[str, Any] | Record) -> Record:
        """``row`` as a validated record of this stream's schema.

        A mapping is converted (missing fields and declared types are
        checked); a record must carry exactly this stream's field names —
        its values are type-checked and relabelled to the catalog's
        schema, unless it already is one of this schema's records.

        Raises:
            SchemaError: when the row does not fit the stream.
        """
        schema = self.schema
        if not isinstance(row, Record):
            return Record.from_mapping(schema, row)
        if row.schema is schema:
            return row
        if row.schema.fields != schema.fields:
            raise SchemaError(
                f"record with fields {list(row.schema.fields)} does not fit "
                f"stream {self.name!r} {schema!r}")
        return Record(schema, row.values)


class RelationDef:
    """A registered base relation: schema plus mutable current contents."""

    def __init__(self, name: str, schema: Schema,
                 rows: Iterable[Mapping[str, Any] | Record] = ()) -> None:
        self.name = name
        self.schema = schema
        self.contents = Bag()
        for row in rows:
            self.insert(row)

    def _coerce(self, row: Mapping[str, Any] | Record) -> Record:
        if isinstance(row, Record):
            return row.with_schema(self.schema)
        return Record.from_mapping(self.schema, row)

    def insert(self, row: Mapping[str, Any] | Record) -> Record:
        record = self._coerce(row)
        self.contents.add(record)
        return record

    def delete(self, row: Mapping[str, Any] | Record) -> Record:
        record = self._coerce(row)
        if self.contents.discard(record) == 0:
            raise PlanError(f"row not present in relation {self.name}: "
                            f"{record!r}")
        return record


class Catalog:
    """Name → source definitions, shared by the CQL and SQL front ends."""

    def __init__(self) -> None:
        self._streams: dict[str, StreamDef] = {}
        self._relations: dict[str, RelationDef] = {}

    def register_stream(self, name: str, schema: Schema) -> StreamDef:
        """Register a stream.  Names are unique across streams/relations."""
        self._check_free(name)
        definition = StreamDef(name, schema)
        self._streams[name] = definition
        return definition

    def register_relation(self, name: str, schema: Schema,
                          rows: Iterable[Mapping[str, Any] | Record] = (),
                          ) -> RelationDef:
        """Register a base relation with optional initial contents."""
        self._check_free(name)
        definition = RelationDef(name, schema, rows)
        self._relations[name] = definition
        return definition

    def _check_free(self, name: str) -> None:
        if name in self._streams or name in self._relations:
            raise PlanError(f"source {name!r} is already registered")

    def is_stream(self, name: str) -> bool:
        return name in self._streams

    def is_relation(self, name: str) -> bool:
        return name in self._relations

    def stream(self, name: str) -> StreamDef:
        try:
            return self._streams[name]
        except KeyError:
            raise PlanError(f"unknown stream {name!r}") from None

    def relation(self, name: str) -> RelationDef:
        try:
            return self._relations[name]
        except KeyError:
            raise PlanError(f"unknown relation {name!r}") from None

    def schema_of(self, name: str) -> Schema:
        if name in self._streams:
            return self._streams[name].schema
        if name in self._relations:
            return self._relations[name].schema
        raise PlanError(f"unknown source {name!r}")

    def stream_names(self) -> list[str]:
        return sorted(self._streams)

    def relation_names(self) -> list[str]:
        return sorted(self._relations)
