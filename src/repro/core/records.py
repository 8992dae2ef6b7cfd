"""Records and schemas — the tuples ``o`` of Definition 2.2.

A :class:`Schema` is an ordered list of field names (optionally typed); a
:class:`Record` is an immutable tuple of values conforming to a schema.
Records support access by position and by name, are hashable (so they can be
multiset elements and join keys), and compare by value, which is what the
bag semantics of the relational operators need.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import SchemaError


class Schema:
    """An ordered, named record layout.

    Fields may carry an optional Python type used for validation; ``None``
    means "any type".  Field names may be qualified (``"O.room"``): the
    resolution rules in :meth:`index_of` accept either an exact match or an
    unambiguous suffix match, which is how CQL queries refer to
    ``P.id`` vs plain ``id``.
    """

    __slots__ = ("_fields", "_types", "_index", "_typed")

    def __init__(self, fields: Sequence[str],
                 types: Sequence[type | None] | None = None) -> None:
        fields = tuple(fields)
        if len(set(fields)) != len(fields):
            raise SchemaError(f"duplicate field names in {fields!r}")
        if types is None:
            types = (None,) * len(fields)
        else:
            types = tuple(types)
            if len(types) != len(fields):
                raise SchemaError(
                    f"{len(fields)} fields but {len(types)} types")
        self._fields = fields
        self._types = types
        self._index = {name: i for i, name in enumerate(fields)}
        #: The declared types' checks: ``(name, position, type)`` per
        #: typed field, so validating an untyped layout costs nothing.
        self._typed = tuple((name, i, expected) for i, (name, expected)
                            in enumerate(zip(fields, types))
                            if expected is not None)

    @property
    def fields(self) -> tuple[str, ...]:
        return self._fields

    @property
    def types(self) -> tuple[type | None, ...]:
        return self._types

    @property
    def arity(self) -> int:
        return len(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __contains__(self, name: str) -> bool:
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        return f"Schema({list(self._fields)!r})"

    def index_of(self, name: str) -> int:
        """Resolve ``name`` to a position.

        Resolution order: exact match first, then unique unqualified-suffix
        match (``"id"`` resolves to ``"P.id"`` when no other field ends in
        ``.id``).

        Raises:
            SchemaError: when the name is unknown or ambiguous.
        """
        if name in self._index:
            return self._index[name]
        if "." in name:
            # A qualified name matches a whole field only — ``O.id`` never
            # resolves to ``P.id`` — but, as in SQL, case-insensitively
            # (Listing 1 writes ``P.ID`` for the ``id`` attribute).
            folded = [i for f, i in self._index.items()
                      if f.lower() == name.lower()]
            if len(folded) == 1:
                return folded[0]
            if len(folded) > 1:
                raise SchemaError(f"ambiguous field {name!r} in {self!r}")
            raise SchemaError(f"unknown field {name!r} in {self!r}")
        suffix = "." + name
        candidates = [i for f, i in self._index.items() if f.endswith(suffix)]
        if not candidates:
            suffix = suffix.lower()
            candidates = [i for f, i in self._index.items()
                          if f.lower().endswith(suffix)]
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            raise SchemaError(f"ambiguous field {name!r} in {self!r}")
        raise SchemaError(f"unknown field {name!r} in {self!r}")

    def qualify(self, alias: str) -> "Schema":
        """Return a copy with every unqualified field prefixed by ``alias.``."""
        fields = tuple(
            f if "." in f else f"{alias}.{f}" for f in self._fields)
        return Schema(fields, self._types)

    def unqualified(self) -> "Schema":
        """Return a copy with qualifiers stripped (must stay unambiguous)."""
        fields = tuple(f.rpartition(".")[2] for f in self._fields)
        return Schema(fields, self._types)

    def concat(self, other: "Schema") -> "Schema":
        """The schema of a join/product of the two record layouts."""
        return Schema(self._fields + other._fields,
                      self._types + other._types)

    def project(self, names: Sequence[str]) -> "Schema":
        """The schema produced by projecting onto ``names`` (in order)."""
        indices = [self.index_of(n) for n in names]
        return Schema(tuple(names),
                      tuple(self._types[i] for i in indices))

    def validate(self, values: Sequence[Any]) -> None:
        """Check arity and (when declared) types of a value tuple.

        Raises:
            SchemaError: on arity or type mismatch.
        """
        if len(values) != len(self._fields):
            raise SchemaError(
                f"expected {len(self._fields)} values, got {len(values)}")
        self._check_types(values)

    def _check_types(self, values: Sequence[Any]) -> None:
        """The type half of :meth:`validate`, for values of the right
        arity."""
        for name, i, expected in self._typed:
            value = values[i]
            if value is not None and not isinstance(value, expected):
                raise SchemaError(
                    f"field {name!r} expects {expected.__name__}, got "
                    f"{type(value).__name__} ({value!r})")


class Record:
    """An immutable tuple of values with a :class:`Schema`.

    Records hash and compare by their values *and* field names, so two
    records from differently-named schemas are distinct even when the raw
    values coincide — exactly the behaviour bag-relational operators expect.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[Any],
                 validate: bool = True) -> None:
        values = tuple(values)
        if validate:
            schema.validate(values)
        self._schema = schema
        self._values = values

    @classmethod
    def from_mapping(cls, schema: Schema,
                     mapping: Mapping[str, Any]) -> "Record":
        """Build a record from a field-name → value mapping.

        One pass reads the values in field order; the missing-fields
        report is worked out only when that pass fails.  Extra keys are
        ignored.
        """
        try:
            values = tuple([mapping[f] for f in schema._fields])
        except KeyError:
            missing = [f for f in schema._fields if f not in mapping]
            raise SchemaError(
                f"missing fields {missing} for {schema!r}") from None
        if schema._typed:
            schema._check_types(values)
        return trusted_record(schema, values)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, str):
            return self._values[self._schema.index_of(key)]
        return self._values[key]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except SchemaError:
            return default

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (self._values == other._values
                and self._schema._fields == other._schema._fields)

    def __hash__(self) -> int:
        return hash((self._schema._fields, self._values))

    # Immutable, so every copy may be the record itself: snapshots of
    # operator state copy the containers and share the rows.
    def __copy__(self) -> "Record":
        return self

    def __deepcopy__(self, memo: dict) -> "Record":
        return self

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{f}={v!r}" for f, v in zip(self._schema.fields, self._values))
        return f"Record({pairs})"

    def as_dict(self) -> dict[str, Any]:
        """The record as a field-name → value dict (copies)."""
        return dict(zip(self._schema.fields, self._values))

    def project(self, names: Sequence[str]) -> "Record":
        """A new record containing only ``names``, in the given order."""
        schema = self._schema.project(names)
        values = tuple(self[n] for n in names)
        return trusted_record(schema, values)

    def concat(self, other: "Record") -> "Record":
        """The concatenation of two records (join output)."""
        return trusted_record(self._schema.concat(other._schema),
                              self._values + other._values)

    def with_schema(self, schema: Schema) -> "Record":
        """The same values re-labelled under a compatible schema (the
        values tuple is shared, not copied, and not re-validated)."""
        if len(schema._fields) != len(self._values):
            raise SchemaError(
                f"cannot relabel {len(self._values)} values as {schema!r}")
        return trusted_record(schema, self._values)

    def key(self, names: Sequence[str]) -> tuple[Any, ...]:
        """The tuple of values at ``names`` — a grouping/join key."""
        return tuple(self[n] for n in names)


_new = object.__new__


def trusted_record(schema: Schema, values: tuple[Any, ...]) -> Record:
    """A record over a values *tuple* already known to fit ``schema``.

    The hot-path constructor: no copy, no validation, no ``__init__``
    call.  Operators building output rows from validated inputs use it.
    """
    record = _new(Record)
    record._schema = schema
    record._values = values
    return record


def records_from_dicts(schema: Schema,
                       rows: Iterable[Mapping[str, Any]]) -> list[Record]:
    """Convenience: build a list of records from dict rows."""
    return [Record.from_mapping(schema, row) for row in rows]
