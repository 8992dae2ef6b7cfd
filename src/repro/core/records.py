"""Records and schemas — the tuples ``o`` of Definition 2.2.

A :class:`Schema` is an ordered list of field names (optionally typed); a
:class:`Record` is an immutable tuple of values conforming to a schema.
Records support access by position and by name, are hashable (so they can be
multiset elements and join keys), and compare by value, which is what the
bag semantics of the relational operators need.

A row is a tuple: a Record *is* a ``tuple`` of its values, of a subclass
built once per field layout (``(fields, types)``, :attr:`Schema.record_type`)
that carries the layout's schema as a class attribute.  Labelling a row is
calling that class with the values tuple (:func:`label_rows` maps it over
a whole answer), which runs ``tuple``'s own constructor, and hashing one
is the tuple's own hash, both in C.  A Record equals only
Records of the same field names, never a plain tuple, and is unordered.

Inside a compiled query a row is just its values tuple, validated once at
the door by its layout's generated coercer, which defers to
:meth:`Schema.coerce`; both hand a Record in as the plain tuple of its
values, so a Record never enters the engine.  It becomes a Record again
only where a caller reads it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence
from weakref import WeakValueDictionary

from repro.core.errors import SchemaError


class Schema:
    """An ordered, named record layout.

    Fields may carry an optional Python type used for validation; ``None``
    means "any type".  Field names may be qualified (``"O.room"``): the
    resolution rules in :meth:`index_of` accept either an exact match or an
    unambiguous suffix match, which is how CQL queries refer to
    ``P.id`` vs plain ``id``.
    """

    __slots__ = ("_fields", "_types", "_index", "_typed", "_record_type")

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

    def __reduce__(self) -> tuple:
        # Rebuilt from the layout: the cached record class is not
        # importable by name, and an equal schema finds it again.
        return Schema, (self._fields, self._types)

    @property
    def record_type(self) -> "type[Record]":
        """The :class:`Record` subclass of this layout: one class per
        ``(fields, types)``, shared by every equal schema, so building
        schemas builds no classes.  Its ``_schema`` is the layout's first
        schema, equal to this one but not always the same object."""
        try:
            return self._record_type
        except AttributeError:
            pass
        layout = (self._fields, self._types)
        cls = _layouts.get(layout)
        if cls is None:
            cls = _layouts[layout] = _LayoutType(
                "Record", (Record,), {"__slots__": (), "_schema": self})
        self._record_type = cls
        return cls

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

    def coerce(self, row: "Mapping[str, Any] | Record") -> tuple[Any, ...]:
        """``row`` validated into a values tuple of this layout: the
        reference row coercer.  Every entry point runs the generated
        coercer of its layout (:func:`repro.cql.kernels.coercer_kernel`),
        which hands this method every row it does not take itself, so
        refusals and their messages have this one source.

        A mapping is read in field order (extra keys are ignored); a
        record must be one of this schema's own, taken as the plain tuple
        of its values, or carry exactly these field names.  Declared
        types are checked on the rest.  Raises :class:`SchemaError` when
        the row does not fit.
        """
        if isinstance(row, Record):
            schema = row._schema
            if schema is self:
                return tuple(row)
            if schema._fields != self._fields:
                raise SchemaError(
                    f"record with fields {list(schema._fields)} does "
                    f"not fit {self!r}")
            values = tuple(row)
        else:
            try:
                values = tuple([row[f] for f in self._fields])
            except KeyError:
                missing = [f for f in self._fields if f not in row]
                raise SchemaError(
                    f"missing fields {missing} for {self!r}") from None
        if self._typed:
            self._check_types(values)
        return values

    def _check_types(self, values: Sequence[Any]) -> None:
        """The type half of :meth:`validate`, for values of the right
        arity."""
        for name, i, expected in self._typed:
            value = values[i]
            if value is not None and not isinstance(value, expected):
                raise SchemaError(
                    f"field {name!r} expects {expected.__name__}, got "
                    f"{type(value).__name__} ({value!r})")


_getitem = tuple.__getitem__
_tuple_eq = tuple.__eq__


def _unordered(symbol: str):
    """A comparison that refuses, as it does for a plain object: rows are
    multiset elements, never sorted by value (a tuple would order them)."""
    def compare(self, other: object) -> bool:
        raise TypeError(
            f"{symbol!r} not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}")
    return compare


class _RecordType(type):
    """The metaclass of :class:`Record`: ``Record(schema, values)`` copies
    ``values``, validates them against ``schema`` unless told not to, and
    returns a record of ``schema``'s layout class."""

    def __call__(cls, schema: Schema, values: Sequence[Any],
                 validate: bool = True) -> "Record":
        values = tuple(values)
        if validate:
            schema.validate(values)
        return schema.record_type(values)


class _LayoutType(_RecordType):
    """The metaclass of a layout's class: calling the class with a values
    tuple is ``type``'s own call into ``tuple``'s constructor, all in C
    (no Python ``__new__`` anywhere in a record's MRO).  That is the one
    labelling constructor.  Mapped over 50 rows it took 98 ns a row
    against 136 ns for ``tuple.__new__(cls, values)``, whose wrapper
    re-checks its arguments (2-core box, CPython 3.11)."""

    __call__ = type.__call__


class Record(tuple, metaclass=_RecordType):
    """An immutable tuple of values with a :class:`Schema`.

    Each instance is of its layout's subclass (:attr:`Schema.record_type`),
    so a record is its values tuple plus a class pointer.  Records compare
    by their values *and* field names, so two records from
    differently-named schemas are distinct even when the raw values
    coincide — exactly the behaviour bag-relational operators expect — and
    a record never equals a plain tuple.  They hash as their values tuple,
    which equal records share.  ``Record(schema, values)`` copies and
    validates; the engine's edges label trusted values with
    :func:`label_rows` or :func:`trusted_record`.
    """

    __slots__ = ()

    #: The layout's schema; set on each layout's subclass.
    _schema: Schema

    @classmethod
    def from_mapping(cls, schema: Schema,
                     mapping: Mapping[str, Any]) -> "Record":
        """Build a record from a field-name → value mapping, validated
        by :meth:`Schema.coerce` (extra keys are ignored)."""
        return trusted_record(schema, schema.coerce(mapping))

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """The values as a plain tuple (a copy: the record is one too)."""
        return tuple(self)

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, str):
            return _getitem(self, self._schema.index_of(key))
        return _getitem(self, key)

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except SchemaError:
            return default

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return _tuple_eq(self, other) and (
                self.__class__ is other.__class__
                or self._schema._fields == other._schema._fields)
        # A plain tuple is never a record: without this, tuple equality
        # would answer for it in either operand order.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    # The values alone: records equal under __eq__ have equal values,
    # and rows of different layouts that share values only collide.
    __hash__ = tuple.__hash__

    __lt__ = _unordered("<")
    __le__ = _unordered("<=")
    __gt__ = _unordered(">")
    __ge__ = _unordered(">=")

    # Immutable, so every copy may be the record itself: snapshots of
    # operator state copy the containers and share the rows.
    def __copy__(self) -> "Record":
        return self

    def __deepcopy__(self, memo: dict) -> "Record":
        return self

    def __reduce__(self) -> tuple:
        # A layout's class is not importable by name: rebuild through
        # the schema, which finds (or builds) it again.
        return trusted_record, (self._schema, tuple(self))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{f}={v!r}" for f, v in zip(self._schema._fields, self))
        return f"Record({pairs})"

    def as_dict(self) -> dict[str, Any]:
        """The record as a field-name → value dict (copies)."""
        return dict(zip(self._schema._fields, self))

    def project(self, names: Sequence[str]) -> "Record":
        """A new record containing only ``names``, in the given order."""
        schema = self._schema.project(names)
        values = tuple(self[n] for n in names)
        return trusted_record(schema, values)

    def concat(self, other: "Record") -> "Record":
        """The concatenation of two records (join output)."""
        return trusted_record(self._schema.concat(other._schema),
                              tuple.__add__(self, other))

    def with_schema(self, schema: Schema) -> "Record":
        """The same values re-labelled under a compatible schema (not
        re-validated)."""
        if len(schema._fields) != len(self):
            raise SchemaError(
                f"cannot relabel {len(self)} values as {schema!r}")
        return schema.record_type(self)

    def key(self, names: Sequence[str]) -> tuple[Any, ...]:
        """The tuple of values at ``names`` — a grouping/join key."""
        return tuple(self[n] for n in names)


#: Layout → its Record subclass, held weakly: a layout no schema or
#: record uses any more takes its class with it.
_layouts: WeakValueDictionary = WeakValueDictionary()


def trusted_record(schema: Schema, values: tuple[Any, ...]) -> Record:
    """A record over a values *tuple* already known to fit ``schema``.

    No validation, no Python-level constructor: how the engine's edges
    label one of the values tuples it keeps.
    """
    return schema.record_type(values)


def label_rows(schema: Schema, rows: Iterable[tuple[Any, ...]],
               ) -> list[Record]:
    """Each of ``rows`` (values tuples known to fit ``schema``) as a
    Record of ``schema``, in order: how a read labels a whole answer,
    with no Python call per row."""
    return list(map(schema.record_type, rows))


def records_from_dicts(schema: Schema,
                       rows: Iterable[Mapping[str, Any]]) -> list[Record]:
    """Convenience: build a list of records from dict rows."""
    return [Record.from_mapping(schema, row) for row in rows]
