"""``python -m repro.chaos`` — the standing chaos campaign.

Two sweeps, both seeded and bounded:

* **crash matrix** — every operator position of a random difftest
  case's query is killed once mid-stream; each run must
  recover and match the fault-free reference (the kernel-crashed oracle
  leg, run in bulk).  Each case also runs through a recovering
  ``DSMSEngine``, crashed on a checkpoint tick, in ``advance_time`` and in
  the replay that recovers from it (the dsms-crashed leg).
* **broker chaos** — consumer groups poll through a
  :class:`~repro.chaos.ChaosBroker` across seeds and fault mixes; every
  offset must arrive exactly once, in order.

Exit status 0 means every injected fault was survived cleanly.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.chaos.injection import ChaosBroker
from repro.difftest.generators import gen_case
from repro.difftest.oracle import run_case


def crash_matrix(cases: int, seed: int) -> list[str]:
    """Run the full oracle (kernel- and dsms-crashed legs included) over
    random cases; any divergence anywhere is a campaign failure."""
    rng = random.Random(seed)
    problems: list[str] = []
    for index in range(cases):
        case = gen_case(rng, seed=index)
        divergence = run_case(case)
        if divergence is not None:
            problems.append(f"case {index}: {divergence} "
                            f"(query: {case.query})")
    return problems


def broker_sweep(seeds: int, base_seed: int) -> tuple[int, list[str]]:
    """Drive seeded drop/dup/reorder chaos through consumer groups."""
    from repro.runtime.broker import Broker, ConsumerGroup

    problems: list[str] = []
    faults = 0
    for offset in range(seeds):
        seed = base_seed + offset
        rng = random.Random(seed)
        broker = Broker()
        broker.create_topic("t", partitions=rng.randint(1, 3))
        count = rng.randint(20, 80)
        produced = []
        for i in range(count):
            record = broker.produce("t", i, key=str(i % 7))
            produced.append((record.partition, record.offset, i))
        chaos = ChaosBroker(broker, seed=seed,
                            drop=rng.uniform(0.0, 0.4),
                            duplicate=rng.uniform(0.0, 0.4),
                            reorder=rng.uniform(0.0, 0.8))
        group = ConsumerGroup(chaos, "g", ["t"])
        group.join("m")
        consumed = []
        for _ in range(5000):
            consumed.extend((r.partition, r.offset, r.value)
                            for r in group.poll("m"))
            if len(consumed) >= count:
                break
        if sorted(consumed) != sorted(produced):
            problems.append(f"seed {seed}: lost or invented records")
        for partition in {p for p, _, _ in consumed}:
            offsets = [o for p, o, _ in consumed if p == partition]
            if offsets != sorted(set(offsets)):
                problems.append(f"seed {seed}: partition {partition} "
                                f"out of order or duplicated")
        faults += sum(chaos.faults.values())
    return faults, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="fault-injection campaign: crash matrix + broker chaos")
    parser.add_argument("--cases", type=int, default=200,
                        help="random queries for the crash matrix")
    parser.add_argument("--broker-seeds", type=int, default=100,
                        help="seeds for the broker chaos sweep")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    problems = crash_matrix(args.cases, args.seed)
    print(f"crash matrix: {args.cases} cases, "
          f"{len(problems)} divergence(s)")
    faults, broker_problems = broker_sweep(args.broker_seeds, args.seed)
    problems += broker_problems
    print(f"broker chaos: {args.broker_seeds} seeds, {faults} injected "
          f"fault(s), {len(broker_problems)} problem(s)")
    for problem in problems:
        print(f"  FAIL {problem}")
    print("chaos campaign " + ("clean" if not problems else "FAILED"))
    return 0 if not problems else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
