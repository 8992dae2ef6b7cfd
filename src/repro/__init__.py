"""repro — an executable companion to "An Overview of Continuous Querying
in (Modern) Data Systems" (Bonifati & Tommasini, SIGMOD 2024).

The library implements, as working laptop-scale Python systems, every family
of continuous-query system the survey covers:

* :mod:`repro.core` — streams, time-varying relations, windows, the CQL
  S2R/R2R/R2S trichotomy, continuous semantics, monotonicity, snapshot
  reducibility (paper Sections 2-3).
* :mod:`repro.cql` — the CQL continuous query language: parser, algebra,
  planner, incremental executor (Section 3.1).
* :mod:`repro.dsms` — a Data Stream Management System runtime with the
  Stream/Store/Scratch/Throw architecture of Figure 3 (Section 3.2).
* :mod:`repro.dataflow` — the Google Dataflow model: ParDo, GroupByKey,
  event-time windows, triggers, watermarks (Section 4.1.1).
* :mod:`repro.dsl` — a Flink/Kafka-Streams-style functional DSL and the
  stream/table duality (Section 4.1.2).
* :mod:`repro.sql` — a streaming SQL dialect with a rule-based optimizer and
  a volcano cost-based planner (Sections 4.1.3, 4.2).
* :mod:`repro.runtime` — the streaming-system substrate of Figure 5:
  partitioned broker, LSM key-value state store, actors, job DAGs,
  checkpointing (Section 4.2).
* :mod:`repro.viewmaint` — streaming-database view maintenance:
  DBToaster-style higher-order deltas and InvaliDB-style push queries
  (Section 5.1); the eager / lazy / split ("meet me halfway") spectrum
  is :mod:`repro.views` target lags.
* :mod:`repro.graph` — streaming property graphs and incremental regular
  path queries (Section 5.2).
* :mod:`repro.rsp` — RDF stream processing with RSP-QL semantics
  (Section 5.2).
* :mod:`repro.bench` — deterministic workload generators and the experiment
  harness behind EXPERIMENTS.md.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
