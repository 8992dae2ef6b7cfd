"""Every name a ``repro`` module exports resolves.

A deletion that leaves a name behind in some ``__all__`` breaks
``from repro.x import *`` and misleads a reader of the package's
surface, yet nothing imports the stale name, so no other test notices.
This imports every module under ``repro`` (a package's ``__main__`` is
a command line, not a library module, and is skipped) and resolves each
exported name.
"""

import importlib
import pkgutil

import repro


def modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] != "__main__":
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    exported, stale = 0, []
    for module in modules():
        names = getattr(module, "__all__", ())
        exported += len(names)
        stale += [f"{module.__name__}.{name}" for name in names
                  if not hasattr(module, name)]
    assert stale == []
    assert exported > 500  # the walk reached the whole package
