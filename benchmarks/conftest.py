"""Shared configuration for the benchmark suite.

Run with::

    pytest benchmarks/          # or: make bench

Every experiment prints the table recorded in EXPERIMENTS.md (use ``-s``
to see them) and asserts its *shape* claims (who wins, trends); the
``benchmark`` fixture times one representative kernel per experiment.
``pytest benchmarks/ --benchmark-only`` times those kernels and checks
nothing: pytest-benchmark skips every test that does not use the
``benchmark`` fixture, the parity and speed-up gates included.
"""
