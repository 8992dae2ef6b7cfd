"""Live rescale: migration stall and the zero-divergence gate.

Elasticity (survey §4.2, ROADMAP item 4): a running query is
live-migrated 1→4→2 mid-stream — recompiled at the target width at an
instant boundary, per-partition state re-keyed by ``partition_of``
placement, resumed — and must produce **byte-identical** output to a
never-rescaled run.
Two gates back the claim:

* a grouped-aggregate workload rescaled mid-stream, comparing emitted
  stream and final relation against the serial control, with the stall
  (wall time the query is paused inside ``rescale()``) measured per
  migration;
* the difftest live-rescale leg over 200 seeded generator cases
  (``run_rescale_case``), which must come back clean.

Results land in ``BENCH_rescale.json``.
"""

import pytest

from repro.bench import (
    ExperimentTable,
    OBSERVATION_SCHEMA,
    bench_result,
    room_observations,
    timed,
    write_bench_json,
)
from repro.cql import ContinuousQuery, CQLEngine
from repro.runtime.rescale import rescale

pytestmark = pytest.mark.rescale

ROWS = room_observations(600)
QUERY = ("SELECT ISTREAM room, COUNT(*) AS n FROM Obs [Range 40] "
         "WHERE temp > 10 GROUP BY room")
#: Rescale 1→4 after a third of the instants, 4→2 after two thirds.
WIDTHS = (4, 2)
RESCALE_FUZZ_CASES = 200


def _batches():
    by_instant: dict[int, list] = {}
    for row, t in ROWS:
        by_instant.setdefault(t, []).append(row)
    return sorted(by_instant.items())


def _run(migrate: bool):
    engine = CQLEngine()
    engine.register_stream("Obs", OBSERVATION_SCHEMA)
    plan = engine.plan(QUERY)
    query = ContinuousQuery(plan, engine.catalog)
    batches = _batches()
    cuts = {len(batches) // 3: WIDTHS[0],
            2 * len(batches) // 3: WIDTHS[1]}
    reports = []
    query.start()
    for position, (t, rows) in enumerate(batches):
        if migrate and position in cuts:
            reports.append(rescale(query, cuts[position]))
        query.push_batch(t, {"Obs": rows})
    query.finish()
    return query, reports


def _outputs(query):
    stream = query.emitted_stream()
    return (stream.timestamps(), stream.values(),
            sorted(query.current().items(), key=repr))


def test_bench_rescale_writes_json():
    control, _ = _run(migrate=False)
    expected = _outputs(control)

    (rescaled, reports), elapsed = timed(lambda: _run(migrate=True))
    assert len(reports) == len(WIDTHS), "both migrations must run"
    assert _outputs(rescaled) == expected, \
        "rescaled 1→4→2 run diverged from the never-rescaled control"
    assert rescaled.parallelism == WIDTHS[-1]

    table = ExperimentTable(
        f"Live rescale 1→{WIDTHS[0]}→{WIDTHS[1]} "
        f"({len(ROWS)} events, grouped aggregate)",
        ["migration", "migrated_entries", "stall_seconds"])
    for report in reports:
        table.add_row(f"{report.parallelism_from}→{report.parallelism_to}",
                      report.migrated_entries, round(report.seconds, 6))
    table.show()

    total_stall = sum(report.seconds for report in reports)
    # The stall bound the acceptance criterion asks for: migration must
    # be a pause, not a rerun — far cheaper than replaying the stream.
    assert total_stall < elapsed, \
        "migration stall exceeded the entire run time"

    from repro.difftest.runner import fuzz
    campaign = fuzz(seed=0, cases=0, core_cases=0, view_cases=0,
                    rescale_cases=RESCALE_FUZZ_CASES, shrink=False)
    assert campaign.clean, campaign.summary()

    write_bench_json(bench_result(
        "rescale",
        table=table,
        events=len(ROWS),
        widths=list(WIDTHS),
        stall_seconds=round(total_stall, 6),
        run_seconds=round(elapsed, 6),
        migrated_entries=sum(r.migrated_entries for r in reports),
        divergences=0,
        rescale_fuzz_cases=RESCALE_FUZZ_CASES,
        rescale_fuzz_clean=campaign.clean,
    ), ".")
