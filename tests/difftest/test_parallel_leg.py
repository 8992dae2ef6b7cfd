"""Deterministic regressions for the kernel-parallel oracle config."""

import itertools

import pytest

from repro.difftest import Case, Config, apply_mutant, build_engine, run_case
from repro.difftest.oracle import AXES
from repro.plan.parallel import partition_scheme


GROUPED = ("SELECT room, COUNT(*) AS n FROM Obs [Range 4] "
           "GROUP BY room")
STRIDED = ("SELECT id, COUNT(*) AS n FROM Obs [Range 6] "
           "GROUP BY id")


def engaged(query: str) -> bool:
    """True when the parallel config will actually run (not skip)."""
    return partition_scheme(build_engine().plan(query)) is not None


def test_grouped_case_is_clean():
    assert engaged(GROUPED)
    case = Case(query=GROUPED, streams={"Obs": [
        ({"id": i, "room": "ab"[i % 2], "temp": i}, i // 2)
        for i in range(12)]})
    assert run_case(case) is None


def test_strided_int_keys_are_clean():
    # Keys 0, 4, 8, 12, 16: the pre-fix int-passthrough hash put every
    # one of them on replica 0 of any power-of-two fission.
    assert engaged(STRIDED)
    case = Case(query=STRIDED, streams={"Obs": [
        ({"id": 4 * (i % 5), "room": "a", "temp": i}, i)
        for i in range(15)]})
    assert run_case(case) is None


def test_r2s_case_is_clean():
    query = ("SELECT ISTREAM room, MAX(temp) AS m FROM Obs [Range 3] "
             "GROUP BY room")
    assert engaged(query)
    case = Case(query=query, streams={"Obs": [
        ({"id": i, "room": "ab"[i % 2], "temp": i % 7}, i)
        for i in range(10)]})
    assert run_case(case) is None


def test_unpartitionable_query_skips_leg():
    query = "SELECT COUNT(*) AS n FROM Obs [Range 4]"
    assert not engaged(query)
    case = Case(query=query, streams={"Obs": [
        ({"id": i, "room": "a", "temp": i}, i) for i in range(6)]})
    ran = []
    assert run_case(case, configs=[Config("kernel-parallel", width=2)],
                    ran=ran) is None
    assert ran == []


#: Live rescale's relation-side crash had this shape: a query keyed by
#: a relation column over a filtered relation side (``draw_query``'s
#: relation-grouped join).  Its root is a running aggregate, so the
#: change-log holds the aggregate's rows serially and owns a copy when
#: fissioned or rescaled.
RELATION_KEYED = ("SELECT R.room, COUNT(*) AS n FROM Obs O [Range 3], "
                  "Rooms R WHERE O.room = R.room AND R.floor > 1 "
                  "GROUP BY R.room")


def test_relation_keyed_aggregate_is_clean_in_every_config():
    assert engaged(RELATION_KEYED)
    case = Case(query=RELATION_KEYED, streams={"Obs": [
        ({"id": i, "room": "ab"[i % 2], "temp": i}, i // 2)
        for i in range(9)], "Alerts": []})
    configs = [Config(f"config-{index}", **dict(zip(AXES, values)))
               for index, values in enumerate(
                   itertools.product(*AXES.values()))]
    ran = []
    assert run_case(case, configs=configs, ran=ran) is None
    for axis, value in (("rescale", True), ("crash", "aimed"),
                        ("crash", "operators"), ("members", 2),
                        ("batch", 8), ("driver", "dsms"), ("width", 2)):
        assert any(getattr(config, axis) == value for config in ran), axis


#: The generator's three-way join shapes: on one key (one JoinOp of three
#: inputs, key-partitionable by ``id``) and over two keys (two joins, run
#: serially: the upper key is not the lower one).
SHARED_KEY = ("SELECT O.id, A.level, B.level FROM Obs O [Range 3], "
              "Alerts A [Range 2], Alerts B [Range 4] "
              "WHERE O.id = A.id AND A.id = B.id")
MIXED_KEY = ("SELECT O.id, A.level, R.floor FROM Obs O [Range 3], "
             "Alerts A [Range 2], Rooms R "
             "WHERE O.id = A.id AND O.room = R.room")


def three_way_case(query: str) -> Case:
    """``query`` over keys that collide and arrivals that share instants
    on every input."""
    return Case(query=query, streams={
        "Obs": [({"id": i % 3, "room": "ab"[i % 2], "temp": i}, i // 2)
                for i in range(9)],
        "Alerts": [({"id": i % 3, "level": i}, i // 2) for i in range(6)]})


@pytest.mark.parametrize("query, partitionable", [
    (SHARED_KEY, True), (MIXED_KEY, False)], ids=["shared-key", "mixed-key"])
def test_three_way_joins_are_clean_in_every_config(query, partitionable):
    assert engaged(query) is partitionable
    configs = [Config(f"config-{index}", **dict(zip(AXES, values)))
               for index, values in enumerate(
                   itertools.product(*AXES.values()))]
    ran = []
    assert run_case(three_way_case(query), configs=configs, ran=ran) is None
    for axis, value in (("crash", "aimed"), ("crash", "operators"),
                        ("members", 2), ("batch", 8), ("driver", "dsms")):
        assert any(getattr(config, axis) == value for config in ran), axis
    assert any(config.width == 2 for config in ran) is partitionable
    assert any(config.rescale for config in ran) is partitionable


def test_only_the_fused_join_shows_the_n_input_order_mutant():
    with apply_mutant("join-probes-after-folds"):
        assert run_case(three_way_case(SHARED_KEY)) is not None
        assert run_case(three_way_case(MIXED_KEY)) is None
