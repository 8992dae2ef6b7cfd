"""Room monitoring on the Figure 3 DSMS: Store, Scratch, Throw in action.

A building-monitoring scenario: three standing queries over one sensor
stream, bounded queues with load shedding on the low-priority query, and
a tour of the architectural components as the stream flows.

Run:  python examples/room_monitoring.py
"""

from repro.bench import room_observations, OBSERVATION_SCHEMA
from repro.core import Schema
from repro.dsms import DSMSEngine, SemanticShedder


def main() -> None:
    dsms = DSMSEngine()
    dsms.register_stream("Obs", OBSERVATION_SCHEMA)
    dsms.register_relation(
        "Rooms", Schema(["room", "floor"]),
        rows=[{"room": f"room{i}", "floor": i % 3} for i in range(5)])

    # Three standing queries, registered once (the Figure 1 contract).
    alerts = dsms.register_query(
        "alerts",
        "SELECT ISTREAM id, room FROM Obs [Now] WHERE temp > 33")
    averages = dsms.register_query(
        "averages",
        "SELECT room, AVG(temp) AS avg_temp FROM Obs [Range 300] "
        "GROUP BY room")
    # The floor summary tolerates loss: shed low temperatures first.
    floors = dsms.register_query(
        "floors",
        "SELECT R.floor, COUNT(*) AS readings "
        "FROM Obs O [Range 300], Rooms R WHERE O.room = R.room "
        "GROUP BY R.floor",
        shedder=SemanticShedder(utility=lambda row: row["temp"],
                                min_utility=20, threshold=0.5),
        queue_capacity=4)

    print("== ingesting 120 observations ==")
    for row, t in room_observations(120):
        dsms.ingest("Obs", row, t)
        # Drain sporadically so queue pressure (and shedding) can build.
        if t % 40 == 0:
            dsms.run_until_idle()
    dsms.run_until_idle()

    print("\n-- Store (continuous answers, read at any time) --")
    for record in sorted(averages.store_state(), key=repr):
        print(f"  {record['room']:<7} avg_temp={record['avg_temp']:.1f}")
    for record in sorted(floors.store_state(), key=repr):
        print(f"  floor {record['floor']}: {record['readings']} readings")

    print("\n-- alert stream (push output) --")
    for emission in alerts.emissions()[:5]:
        print(f"  t={emission.timestamp:>4} sensor {emission.record['id']} "
              f"overheated in {emission.record['room']}")
    print(f"  ... {len(alerts.emissions())} alerts total")

    print("\n-- Scratch (working memory) --")
    for label, size in sorted(dsms.scratch.breakdown().items()):
        if size:
            print(f"  {label:<28} {size} tuples")
    print(f"  peak occupancy: {dsms.scratch.peak} tuples")

    horizon = 10_000
    dsms.advance_time(horizon)
    print("\n-- Throw (expired tuples) --")
    print(f"  discarded after window expiry: {dsms.throw.discarded}")
    print(f"  scratch after expiry: {dsms.scratch.occupancy()} tuples")

    print("\n-- per-query metrics --")
    for name, metrics in dsms.metrics_table().items():
        print(f"  {name:<9} processed={metrics['processed']:<4.0f} "
              f"shed={metrics['shed']:<3.0f} "
              f"emitted={metrics['emitted']:.0f}")


if __name__ == "__main__":
    main()
