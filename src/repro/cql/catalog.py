"""The query catalog: named streams and relations.

The DSMS-era systems the paper surveys (STREAM, TelegraphCQ...) all pair a
query language with a catalog of registered sources.  Ours maps names to
stream definitions (schema only — contents arrive at runtime) and relation
definitions (schema plus current contents, updatable to model slowly
changing reference tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from repro.core.errors import PlanError
from repro.core.records import Record, Schema, trusted_record
from repro.core.relation import Bag
from repro.cql import kernels


@dataclass(frozen=True)
class StreamDef:
    """A registered stream: a name and a schema."""

    name: str
    schema: Schema

    @cached_property
    def coerce(self) -> Callable[[Any], tuple]:
        """The stream's row coercer (:func:`kernels.coercer_kernel`),
        generated on first use."""
        return kernels.coercer_kernel(self.schema)

    @cached_property
    def door(self) -> Callable[..., Callable]:
        """The builder of the stream's DSMS arrival door
        (:func:`kernels.door_kernel`), made on first use: it renders a
        door source once per binding flags, so a door rebuilt after the
        readers change renders nothing."""
        return kernels.door_kernel(self.schema)


class RelationDef:
    """A registered base relation: schema plus mutable current contents."""

    def __init__(self, name: str, schema: Schema,
                 rows: Iterable[Mapping[str, Any] | Record] = ()) -> None:
        self.name = name
        self.schema = schema
        self.contents = Bag()
        for row in rows:
            self.insert(row)

    @cached_property
    def coerce(self) -> Callable[[Any], tuple]:
        """The relation's row coercer (:func:`kernels.coercer_kernel`),
        generated on first use."""
        return kernels.coercer_kernel(self.schema)

    def insert(self, row: Mapping[str, Any] | Record) -> Record:
        record = trusted_record(self.schema, self.coerce(row))
        self.contents.add(record)
        return record

    def delete(self, row: Mapping[str, Any] | Record) -> Record:
        record = trusted_record(self.schema, self.coerce(row))
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
