"""cqbench — the repository's benchmark: standing queries, query fleets,
view cascades and checkpointed recovery under one low-noise harness.

Run from the repository root: ``python3 -m cqbench --workload agg_firehose``
(see README.md in this directory).
"""
