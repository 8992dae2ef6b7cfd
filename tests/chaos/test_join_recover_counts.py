"""join_recover's three joins on one key run as one JoinOp — by counts.

``(Obs ⋈ Badge) ⋈ Person`` joins on ``O.id = B.id = P.id``, so the plan
compiles to one JoinOp of three inputs, which keeps each input's rows
once and no ``Obs ⋈ Badge`` tuple.  The crash fuse counts that join's
progress units: 1 per call plus 1 per emitted delta, which equal the
units of the lower of two binary joins, since every Badge id has a Person
row.  So a faulty pass fires the crashes it fired with two joins, after
the same units, and ends with 141 fewer state entries.  Each test fails
if the chain is compiled as two joins.
"""

import pytest

from cqbench.workloads import JoinRecover

#: Per seed, the crashes a full faulty pass fires and the fuse's progress
#: units, as two binary joins counted them.
CRASHES = {1: (6, 9245), 2: (6, 9435), 3: (5, 8820), 4: (6, 9188),
           5: (6, 10217)}


def faulty_pass(seed):
    run = JoinRecover(JoinRecover.generate(seed, JoinRecover.ticks))
    for i in range(JoinRecover.ticks):
        run.tick(i)
    return run


def the_join(run):
    """The query's one JoinOp, the operator the fuse is armed on."""
    (join,) = [op for label, op in run.handle.query.operators()
               if label == "JoinOp"]
    return join


@pytest.mark.parametrize("seed", sorted(CRASHES))
def test_a_faulty_pass_crashes_on_the_binary_plans_schedule(seed):
    run = faulty_pass(seed)
    assert len(the_join(run).children) == 3
    assert (run.fuse.fired, run.fuse.count) == CRASHES[seed]
    # Every crash recovered to the fault-free run's answer.
    assert JoinRecover.verify(run.inputs, JoinRecover.ticks,
                              run.observe()) == []


def test_a_seed_1_pass_ends_with_700_state_entries():
    # Two binary joins held 841: the upper join's 141 Obs ⋈ Badge tuples
    # on top of the windows' and Person's rows.
    assert faulty_pass(1).engine.total_state_size() == 700


def test_the_join_indexes_no_intermediate_tuple():
    join = the_join(faulty_pass(1))
    widths = [len(node.schema.fields) for node in join.inputs]
    assert widths == [3, 2, 2]            # Obs, Badge, Person rows
    for attr, width in zip(join._STATE_ATTRS, widths):
        rows = [row for entry in getattr(join, attr).data.values()
                for row in entry]
        assert rows and all(len(row) == width for row in rows)
