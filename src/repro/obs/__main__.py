"""``python -m repro.obs`` — the live introspection console.

Subcommands:

* ``top`` — per-query / per-operator hot spots rendered from the metrics
  registry.  In-process callers use :func:`repro.obs.render_top` against
  their own running engine; from the command line the view is fed either
  by ``--snapshot file.jsonl`` (a file written by
  :func:`repro.obs.write_snapshot`) or, with no arguments, by a small
  built-in demo workload so the readout is explorable standalone.
* ``snapshot`` — run the demo workload and append a profile snapshot to a
  JSONL file (the endpoint shape the adaptivity loop polls).
* ``explain`` — run the demo workload and print the continuous EXPLAIN
  ANALYZE for its hottest standing query.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def _run_demo():
    """A small shared-group DSMS workload that exercises every collector."""
    import repro.obs as obs
    from repro.core.records import Schema
    from repro.dsms.engine import DSMSEngine

    obs.enable(profile=True)
    engine = DSMSEngine(sharing=True, queue_capacity=64)
    engine.register_stream("Obs", Schema(["room", "temp"]))
    engine.register_query(
        "hot_rooms",
        "SELECT room, COUNT(*) FROM Obs [Range 40 Slide 40] "
        "WHERE temp > 25 GROUP BY room")
    engine.register_query(
        "warm_stream",
        "SELECT ISTREAM room FROM Obs [Now] WHERE temp > 20")
    rooms = ("kitchen", "lab", "office")
    for t in range(240):
        engine.ingest("Obs", {"room": rooms[t % 3],
                              "temp": 15.0 + (t * 7) % 20}, t=t)
        if t % 16 == 0:
            engine.run_until_idle()
    engine.run_until_idle()
    engine.advance_time(280)
    engine.publish_observability()
    return engine


def _registry_from_snapshot(path: str):
    """Rebuild a registry from the newest snapshot line in a JSONL file."""
    from repro.obs.registry import MetricsRegistry

    last: dict[str, Any] | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                last = json.loads(line)
    registry = MetricsRegistry()
    if last is None:
        return registry
    for entry in last.get("metrics", []):
        name, labels = entry["name"], entry.get("labels", {})
        if "p50" in entry:  # histogram — only headline stats survive
            continue
        if "count" in entry:
            registry.gauge(name, **labels).set(entry["value"])
        else:
            counter = registry.counter(name, **labels)
            counter.inc(int(entry["value"]))
    return registry


def main(argv: list[str] | None = None) -> int:
    import repro.obs as obs

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="live query introspection (top / snapshot / explain)")
    sub = parser.add_subparsers(dest="command")
    top = sub.add_parser("top", help="per-query/per-operator hot spots")
    top.add_argument("--snapshot", metavar="FILE",
                     help="render from a write_snapshot() JSONL file "
                          "instead of running the demo workload")
    top.add_argument("--limit", type=int, default=10)
    snap = sub.add_parser("snapshot",
                          help="append a profile snapshot (JSONL)")
    snap.add_argument("--out", default="obs_snapshot.jsonl")
    sub.add_parser("explain",
                   help="EXPLAIN ANALYZE of the demo's hottest query")
    args = parser.parse_args(argv)

    if args.command == "top":
        if args.snapshot:
            registry = _registry_from_snapshot(args.snapshot)
            print(obs.render_top(registry, limit=args.limit))
        else:
            _run_demo()
            print("(demo workload — feed render_top() from your own "
                  "engine for live numbers)")
            print(obs.render_top(limit=args.limit))
        return 0
    if args.command == "snapshot":
        _run_demo()
        path = obs.write_snapshot(args.out)
        print(f"wrote profile snapshot to {path}", file=sys.stderr)
        return 0
    if args.command == "explain":
        engine = _run_demo()
        print(obs.explain_analyze(engine.query("hot_rooms")))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
