"""Keyed operator state: the one container under every physical operator.

The paper's Figure 5 gives each stream operator embedded key-value
state, and Fragkoulis et al. treat keyed state, key groups and
incremental snapshots as one mechanism.  :class:`KeyedState` is that
mechanism for each keyed attribute of a :mod:`repro.cql.executor`
operator (a join side's index, an aggregate's groups, a window's expiry
buckets, ...).  It owns a plain ``dict``, which hot loops bind once per
batch and use directly: no call per entry, and no dict subclass to lose
CPython's exact-dict specialisation.  Around it, it records the keys
changed since its last barrier, keeps the recovery image and moves it
forward or rolls back to it by those keys, sizing its copies, keeps its
operator's O(1) ``state_size`` tally, and splits itself across
partitions for live rescale.
"""

from __future__ import annotations

from collections import deque
from sys import getsizeof
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import StateError


def copy_sized(value: Any) -> tuple[Any, int]:
    """A private copy of one piece of operator state, and the bytes the
    copy allocated (:func:`sys.getsizeof`).

    Rows (values tuples, and Records) are immutable and shared, so they
    cost nothing.  A container counts without the items it shares; a state
    class whose ``copy()`` builds nested containers (a Bag, an aggregate
    group) counts them in its ``__sizeof__``.
    """
    copier = getattr(value, "copy", None)
    if copier is None:
        return value, 0
    value = copier()
    return value, getsizeof(value)


def _entry(part: dict, key: Any, kind: type) -> Any:
    """``part``'s collection at ``key``, created empty when absent."""
    entry = part.get(key)
    if entry is None:
        entry = part[key] = kind()
    return entry


class KeyedState:
    """One keyed attribute of a physical operator (see the module doc).

    Entries are never None: a None read means the key is absent.  The
    owner keeps :attr:`tally` up to date where it changes the entries;
    after :meth:`split` it is recounted as the sum of
    ``weigh`` over the entries (no ``weigh``: no tally, it stays 0).
    """

    __slots__ = ("data", "tally", "marking", "_weigh", "_dirty", "_image",
                 "_image_tally")

    def __init__(self, weigh: Callable[[Any], int] | None = None) -> None:
        self.data: dict = {}
        self.tally = 0
        self._weigh = weigh
        #: Whether a barrier was taken, so changes must be recorded: a
        #: changing operator calls :meth:`mark` only when this plain
        #: attribute is set, and one never checkpointed pays no call.
        self.marking = False
        #: Keys changed since the last barrier (recorded while marking).
        self._dirty: set = set()
        #: The recovery image: the entries at the last barrier.
        self._image: dict = {}
        self._image_tally = 0

    def __repr__(self) -> str:
        return f"KeyedState({self.data!r})"

    def mark(self, keys: Iterable) -> None:
        """Record that the entries at ``keys`` changed; ignored before
        the first barrier, which records every key."""
        if self.marking:
            self._dirty.update(keys)

    def barrier(self) -> tuple[dict, int]:
        """Move the recovery image to the live entries.

        Returns what that wrote — the entry at each key changed since the
        previous barrier (every key at the first), None for a key that is
        gone — and the bytes its copies allocated.  The image shares
        those copies, which nothing mutates.
        """
        data, image, dirty = self.data, self._image, self._dirty
        if not self.marking:
            dirty.update(data)
            self.marking = True
        changed = {}
        copied = 0
        for key in dirty:
            value = data.get(key)
            if value is None:
                image.pop(key, None)
            else:
                value, size = copy_sized(value)
                image[key] = value
                copied += size
            changed[key] = value
        dirty.clear()
        self._image_tally = self.tally
        return changed, copied

    def rollback(self) -> None:
        """Return the live entries to the image in place, touching only
        the keys changed since the last barrier; repeatable."""
        if not self.marking:
            raise StateError("keyed state has no barrier to roll back to")
        image, dirty, data = self._image, self._dirty, self.data
        for key in dirty:
            value = image.get(key)
            if value is None:
                data.pop(key, None)
            else:
                data[key] = copy_sized(value)[0]
        dirty.clear()
        self.tally = self._image_tally

    def split(self, targets: Sequence["KeyedState"],
              route: Callable[[Any, Any], int]) -> int:
        """Add every entry to fresh ``targets[route(key, item)]``; return
        the number of items added.

        A collection entry (dict, list, deque or set) splits item by item
        — a dict's items are its keys — joining what other sources put at
        that key in a target; any other entry goes whole, as its own
        item.  Items are shared, not copied, and ``self`` is only read.
        """
        parts = [target.data for target in targets]
        moved = 0
        for key, value in self.data.items():
            kind = type(value)
            if isinstance(value, dict):
                for item, held in value.items():
                    _entry(parts[route(key, item)], key, kind)[item] = held
            elif isinstance(value, set):
                for item in value:
                    _entry(parts[route(key, item)], key, kind).add(item)
            elif isinstance(value, (list, deque)):
                for item in value:
                    _entry(parts[route(key, item)], key, kind).append(item)
            else:
                parts[route(key, value)][key] = value
                moved += 1
                continue
            moved += len(value)
        for target in targets:
            target._recount()
        return moved

    def _recount(self) -> None:
        weigh = self._weigh
        self.tally = (0 if weigh is None
                      else sum(map(weigh, self.data.values())))
