"""A streaming database in miniature (paper Section 5.1).

The modern era: a dashboard view maintained incrementally as orders
stream in (Materialize/RisingWave-style), as a dynamic table at two
points of the maintenance spectrum (eager vs split: two target lags), a
higher-order-delta join view (DBToaster), and InvaliDB-style push
notifications to a live leaderboard.

Run:  python examples/streaming_database.py
"""

import random

from repro.core.records import Schema
from repro.viewmaint import (
    EventKind,
    GroupedJoinAggregateView,
    LiveQuery,
    RealTimeDatabase,
)
from repro.views import DynamicTableService


def order_stream(n=300, seed=31):
    rng = random.Random(seed)
    regions = ["emea", "amer", "apac"]
    for i in range(n):
        yield {"oid": i, "g": rng.choice(regions),
               "v": rng.randint(10, 500),
               "user": f"u{rng.randrange(8)}"}


def dashboard(orders, target_lag):
    """Stream ``orders`` into a base table under a revenue dashboard
    view at ``target_lag``, one tick per order; return the dashboard as
    read after a refresh, and its view."""
    service = DynamicTableService()
    service.create_table("orders", Schema(["oid", "g", "v", "user"]))
    view = service.execute(
        f"CREATE DYNAMIC TABLE dashboard TARGET_LAG = {target_lag} AS "
        f"SELECT g, COUNT(*) AS n, SUM(v) AS revenue, AVG(v) AS mean "
        f"FROM orders GROUP BY g EMIT CHANGES")
    for order in orders:
        service.apply("orders", inserts=[order])
        service.tick()
    service.refresh("dashboard")
    return service.read("dashboard"), view


def main() -> None:
    # -- 1. incremental dashboard views -----------------------------------
    # The same dashboard at two points of the maintenance spectrum: eager
    # (PipelineDB-style, refreshed at every tick) and split ("meet me
    # halfway": a tick folds the pending orders once 32 versions have
    # piled up, and a read refreshes the rest).
    orders = list(order_stream())
    (eager, eager_view), (split, split_view) = (
        dashboard(orders, target_lag) for target_lag in (0, 32))
    assert eager == split

    print("== revenue dashboard (continuously maintained) ==")
    for row in sorted(eager, key=lambda row: row["g"]):
        print(f"  {row['g']}: {row['n']} orders, "
              f"revenue {row['revenue']}, avg {row['mean']:.1f}")
    print(f"  eager: {eager_view.pulled} orders pulled by "
          f"{eager_view.refreshes} refreshes; split: {split_view.pulled} "
          f"by {split_view.refreshes}")

    # -- 2. higher-order delta join view (DBToaster-style) -----------------
    revenue_by_city = GroupedJoinAggregateView(
        left_key=lambda o: o["user"], right_key=lambda u: u["user"],
        group_key=lambda o: o["g"],
        left_value=lambda o: o["v"], right_value=lambda u: 1)
    for i in range(8):
        revenue_by_city.insert_right({"user": f"u{i}"})
    for order in orders:
        revenue_by_city.insert_left(order)
    print("\n== join view V[region] = Σ order.value ⋈ users ==")
    for region, value in sorted(revenue_by_city.results().items()):
        print(f"  {region}: {value}")

    # -- 3. push-based real-time queries (InvaliDB-style) ------------------
    print("\n== live leaderboard (push notifications) ==")
    db = RealTimeDatabase()
    leaderboard = LiveQuery(lambda d: True,
                            order_by=lambda d: -d["spent"], limit=3)
    db.subscribe("top3", leaderboard)
    spent: dict[str, int] = {}
    notifications = 0
    for order in orders:
        user = order["user"]
        spent[user] = spent.get(user, 0) + order["v"]
        events = db.put(user, {"user": user, "spent": spent[user]})
        for event in events.get("top3", ()):
            notifications += 1
            if event.kind is EventKind.ADD:
                print(f"  + {event.document['user']} enters top-3 with "
                      f"{event.document['spent']}")
            elif event.kind is EventKind.REMOVE and notifications < 40:
                print(f"  - {event.key} drops out")
            if notifications == 12:
                print("  ... (further notifications suppressed)")
    print(f"\nfinal top 3: "
          f"{[(d['user'], d['spent']) for d in leaderboard.result_documents()]}")
    print(f"push notifications delivered: {notifications} "
          f"(vs {len(orders)} polls a pull client would need)")

    # The push view always equals what a fresh pull query would return.
    pull = sorted(db.find(lambda d: True),
                  key=lambda d: -d["spent"])[:3]
    assert leaderboard.result_documents() == pull


if __name__ == "__main__":
    main()
