"""Reproduce the invocation loss under batch signatures during faults.

``bank-batch`` with a fault phase added: from its 10th fault-phase
operation one bank replica returns wrong results, and later a teller
replica crashes.  The voting masks the wrong results, but on the
batch-signature path the ring reconfigurations lose invocations: they
are never executed by any bank replica and never answered.  Prints the
lost invocations and exits 1 while the defect is present::

    python3 perfbench/repro_batch_fault_loss.py [--seed N] [--per-visit]

``--per-visit`` runs the same scenario with per-visit signatures
instead, which loses nothing.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the path above)
from repro.core.config import ImmuneConfig, SurvivabilityCase  # noqa: E402
from repro.sim.faults import FaultPlan  # noqa: E402


class _FaultyBank(workloads._Bank):
    """A replica whose results are wrong after ``corrupt_from`` operations."""

    def __init__(self, corrupt_from):
        super().__init__()
        self.corrupt_from = corrupt_from

    def _result(self, value):
        if self.executed <= self.corrupt_from:
            return value
        return (not value) if isinstance(value, bool) else value + 666

    def deposit(self, account, amount):
        return self._result(super().deposit(account, amount))

    def withdraw(self, account, amount):
        return self._result(super().withdraw(account, amount))

    def transfer(self, source, destination, amount):
        return self._result(super().transfer(source, destination, amount))


def run(seed, batch):
    """Returns the invocations that never completed."""
    from repro.core.immune import ImmuneSystem
    from repro.workloads.bank import BANK_IDL

    fault_start, interval, count = 0.5, 0.01, 300
    corrupt_from, crash_at = 10, 2.0
    config = ImmuneConfig(
        case=SurvivabilityCase.FULL_SURVIVABILITY, seed=seed, batch_signatures=batch
    )
    plan = FaultPlan().schedule_crash(4, crash_at)
    immune = ImmuneSystem(6, config=config, fault_plan=plan, trace_kinds=frozenset())
    server = immune.deploy(
        "bank", BANK_IDL,
        lambda pid: _FaultyBank(corrupt_from) if pid == 2 else workloads._Bank(),
        [0, 1, 2],
    )
    client = immune.deploy_client("teller", [3, 4, 5])
    stubs = {"bank": dict(immune.client_stubs(client, BANK_IDL, server))}
    send = workloads._sender(stubs, immune.processors, 3, immune.scheduler)
    bench = workloads.BankBatch(seed)
    bench.model = workloads._Bank()
    loop = workloads.OpenLoop(immune.scheduler)
    loop.schedule("faults", fault_start, interval, count, send, bench._mixed_op, (3, 5))
    immune.start()
    immune.run(until=fault_start + count * interval + 3.0)
    return [inv for inv in loop.invocations if inv.done is None]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--per-visit", action="store_true")
    args = parser.parse_args(argv)
    lost = run(args.seed, batch=not args.per_visit)
    for inv in lost:
        print("lost: due %.3f %s%r" % (inv.due, inv.args[0], inv.args[2]))
    print("%d invocations lost" % len(lost))
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
