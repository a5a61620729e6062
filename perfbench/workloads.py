"""The benchmark's four workloads.

Each workload is an open loop in simulated time with three phases, all
scheduled before the first simulated event:

* **reference** -- invocations at a fixed rate below capacity; gives
  ``sim_p50_ms`` / ``sim_p99_ms`` (at least 1000 samples);
* **saturation** -- a burst at a 300 us interval, faster than the
  system completes it; the backlog drains at capacity, which gives
  ``sim_capacity_inv_s``;
* **faults** (all but ``bank-batch``) -- invocations keep arriving
  while a value fault and a crash are injected; gives the detection
  and outage intervals.

A workload object is built in :meth:`Workload.build` (timed as set-up),
run in :meth:`Workload.run` (the timed loop) and judged in
:meth:`Workload.finish`, which returns the simulated metrics and every
correctness problem found.  The program only ever sees the generated
inputs; the seed stays in the benchmark (and in the simulator's own
RNG seed, which it also receives as configuration).
"""

import hashlib
import random

from stats import capacity_window, detection_interval, outage_interval

from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.core.immune import ImmuneSystem
from repro.core.replica import ClientInvocationCorrupter
from repro.sim.faults import FaultPlan
from repro.workloads.bank import BANK_IDL, BankServant
from repro.workloads.packet_driver import PACKET_IDL, PacketSink, payload_size_for_frame

#: the paper's Figure 7 saturating interval between invocations
SATURATING_INTERVAL = 300e-6

#: reference-phase samples every workload must complete (p99 then has
#: ten samples beyond it)
REFERENCE_MIN = 1000

#: seed of the RSA keys wherever the facade accepts a key store: the
#: prime search takes several times longer for some seeds than for
#: others, which would make set-up time a property of the workload seed
KEY_SEED = 0


def _keystore(config):
    """A key store with the fixed key seed, for ``config``'s key size and
    digest (built inside ``build``, so key generation is set-up time)."""
    from repro.crypto.keystore import KeyStore

    return KeyStore(
        random.Random(KEY_SEED), modulus_bits=config.modulus_bits, digest_fn=config.digest_fn()
    )


class Invocation:
    """One generated invocation and what became of it at the measuring point."""

    __slots__ = ("phase", "due", "args", "expected", "clients", "done", "replies", "values")

    def __init__(self, phase, due, args=(), expected=None, clients=()):
        self.phase = phase
        self.due = due
        self.args = args
        self.expected = expected
        #: client replica pids that must each get exactly one voted reply
        self.clients = clients
        #: simulated completion time at the measuring point
        self.done = None
        #: voted replies received, per client replica pid
        self.replies = {}
        #: every voted reply value, from every client replica
        self.values = []


class OpenLoop:
    """Fires every invocation at its exact due time, regardless of completions."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.invocations = []
        #: fires that ran after their due time (must stay 0)
        self.late = 0

    def add(self, phase, due, send, args=(), expected=None, clients=()):
        inv = Invocation(phase, due, args, expected, clients)
        self.invocations.append(inv)
        self.scheduler.at(due, self._fire, inv, send, label="perfbench.generator")
        return inv

    def _fire(self, inv, send):
        if self.scheduler.now != inv.due:
            self.late += 1
        send(inv)

    def phase(self, name):
        return [inv for inv in self.invocations if inv.phase == name]

    def schedule(self, phase, start, interval, count, send, make_args=None, clients=()):
        """``count`` invocations ``interval`` apart from ``start``."""
        out = []
        for k in range(count):
            args, expected = make_args(k) if make_args else ((), None)
            out.append(self.add(phase, start + k * interval, send, args, expected, clients))
        return out


class Workload:
    """Common shape: ``build`` (set-up), ``run`` (timed loop), ``finish``."""

    name = None
    #: simulated time the loop runs to
    horizon = None

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.problems = []

    def inputs_digest(self):
        """SHA-256 over the generated inputs (payload and invocation arguments)."""
        blob = repr(
            (getattr(self, "payload", b""), [(inv.phase, inv.args) for inv in self.loop.invocations])
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def run(self):
        """The timed loop: the simulation up to the horizon."""
        self.system.run(until=self.horizon)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    # the metrics every workload reports from its phases -----------------

    def reference_samples(self, loop):
        """``(due, latency)`` of every completed reference invocation."""
        samples = [
            (inv.due, inv.done - inv.due)
            for inv in loop.phase("reference")
            if inv.done is not None
        ]
        self.check(
            len(samples) >= REFERENCE_MIN,
            "reference phase completed %d < %d invocations" % (len(samples), REFERENCE_MIN),
        )
        return samples

    def capacity(self, loop, warmup=0.1):
        burst = loop.phase("saturation")
        done = [inv.done for inv in burst if inv.done is not None]
        start, end, count = capacity_window(burst[0].due, done, len(burst), warmup)
        # the offered rate must exceed what the system delivered
        self.check(
            count / (end - start) < 1.0 / SATURATING_INTERVAL,
            "saturating phase did not saturate",
        )
        return count / (end - start)

    def outage(self, invocations, crash_at):
        value = outage_interval(crash_at, [(inv.due, inv.done) for inv in invocations])
        self.check(value is not None, "nothing completed after the crash")
        return value

    def detect(self, installs, fault_at, culprit):
        value = detection_interval(fault_at, culprit, installs)
        self.check(value is not None, "value-faulty P%d never excluded" % culprit)
        return value


def _recorder(inv, pid, measured, scheduler, then=None):
    """The reply callback of one client replica for one two-way invocation."""

    def reply(value):
        inv.replies[pid] = inv.replies.get(pid, 0) + 1
        inv.values.append(value)
        if pid == measured and inv.done is None:
            inv.done = scheduler.now
        if then is not None:
            then(value)

    return reply


def _sender(stubs, processors, measured, scheduler):
    """Sends two-way invocations whose ``args`` are ``(op, target, op_args)``
    from every live client replica; ``stubs`` maps target -> {pid: stub}."""

    def send(inv):
        op, target, op_args = inv.args
        for pid, stub in stubs[target].items():
            if not processors[pid].crashed:
                getattr(stub, op)(*op_args, reply_to=_recorder(inv, pid, measured, scheduler))

    return send


def _exactly_once(inv, pids):
    """Completed, the expected value everywhere, and one voted reply at
    each of ``pids``."""
    return (
        inv.done is not None
        and all(value == inv.expected for value in inv.values)
        and all(inv.replies.get(pid) == 1 for pid in pids)
    )


def _installs_observer(endpoint, scheduler, installs):
    def on_change(ring_id, members, excluded):
        installs.append((scheduler.now, tuple(members)))

    endpoint.on_membership_change(on_change)


# ----------------------------------------------------------------------
# fig7-case4: the paper's packet stream, signed tokens, one-way
# ----------------------------------------------------------------------


class Fig7Case4(Workload):
    """Six processors, a 3-replica packet client, a 3-replica sink, case 4."""

    name = "fig7-case4"
    REF_START, REF_INTERVAL = 0.05, 0.005
    SAT_START, SAT_COUNT = 5.2, 600
    FAULT_START, FAULT_INTERVAL, FAULT_COUNT = 8.0, 0.01, 500
    VALUE_FAULT_INDEX = 10  # into the fault phase
    CRASH_OFFSET = 2.5  # seconds into the fault phase
    horizon = 13.5
    SERVERS, CLIENTS = (0, 1, 2), (3, 4, 5)
    MEASURED, CRASHED, CORRUPT = 0, 1, 5

    def build(self):
        config = ImmuneConfig(case=SurvivabilityCase.FULL_SURVIVABILITY, seed=self.seed)
        plan = FaultPlan()
        self.crash_at = self.FAULT_START + self.CRASH_OFFSET
        plan.schedule_crash(self.CRASHED, self.crash_at)
        immune = ImmuneSystem(
            6, config=config, fault_plan=plan, trace_kinds=frozenset(), trace_max_records=1000,
            keystore=_keystore(config),
        )
        self.system = immune
        self.sinks = {}
        # the payload is constant (the paper's fixed 64-byte frame); only
        # its bytes come from the seed
        size = payload_size_for_frame(b"packet-sink")
        self.payload = bytes(self.rng.randrange(256) for _ in range(size))

        def factory(pid):
            sink = self.sinks[pid] = _CheckingSink(immune.scheduler, self.payload)
            return sink

        server = immune.deploy("packet-sink", PACKET_IDL, factory, list(self.SERVERS))
        client = immune.deploy_client("packet-client", list(self.CLIENTS))
        stubs = immune.client_stubs(client, PACKET_IDL, server)
        processors = immune.processors

        def send(inv):
            for pid, stub in stubs:
                if not processors[pid].crashed:
                    stub.push(self.payload)

        loop = self.loop = OpenLoop(immune.scheduler)
        loop.schedule("reference", self.REF_START, self.REF_INTERVAL, REFERENCE_MIN, send)
        loop.schedule("saturation", self.SAT_START, SATURATING_INTERVAL, self.SAT_COUNT, send)
        faults = loop.schedule(
            "faults", self.FAULT_START, self.FAULT_INTERVAL, self.FAULT_COUNT, send
        )
        index = REFERENCE_MIN + self.SAT_COUNT + self.VALUE_FAULT_INDEX
        ClientInvocationCorrupter(immune.managers[self.CORRUPT], from_op=index)
        self.value_fault_at = faults[self.VALUE_FAULT_INDEX].due
        self.installs = []
        _installs_observer(immune.endpoints[self.MEASURED], immune.scheduler, self.installs)
        immune.start()

    def finish(self):
        loop = self.loop
        sink = self.sinks[self.MEASURED]
        # one-way invocations from one client group are delivered in
        # order, so the k-th delivery at the sink is the k-th invocation
        for inv, at in zip(loop.invocations, sink.timestamps):
            inv.done = at
        sent = len(loop.invocations)
        for pid in self.SERVERS:
            if pid == self.CRASHED:
                continue
            received = self.sinks[pid].received
            self.check(received == sent, "P%d sink received %d of %d" % (pid, received, sent))
        wrong = sum(sink.wrong for sink in self.sinks.values())
        self.check(wrong == 0, "sinks received %d payloads other than the sent one" % wrong)
        self.check(loop.late == 0, "generator ran late %d times" % loop.late)
        attempted = sent
        failed = (
            sum(1 for inv in loop.invocations if inv.done is None)
            + max(0, sink.received - sent)
            + sink.wrong
        )
        metrics = {
            "reference": self.reference_samples(loop),
            "capacity": self.capacity(loop),
            "outage": self.outage(loop.invocations, self.crash_at),
            "detect": self.detect(self.installs, self.value_fault_at, self.CORRUPT),
        }
        return attempted, failed, metrics



class _CheckingSink(PacketSink):
    """A packet sink that also counts payloads other than the sent one."""

    def __init__(self, scheduler, payload):
        super().__init__(scheduler)
        self.payload = payload
        self.wrong = 0

    def push(self, data):
        super().push(data)
        if data != self.payload:
            self.wrong += 1


# ----------------------------------------------------------------------
# bank-batch: two-way bank operations on the batch-signature pipeline
# ----------------------------------------------------------------------


class _Bank(BankServant):
    """The bank servant every replica runs; counts executed operations."""

    ACCOUNTS = 32
    INITIAL = 1_000_000

    def __init__(self):
        super().__init__()
        for k in range(self.ACCOUNTS):
            self.open_account("acct%d" % k, self.INITIAL)
        self.executed = 0

    def deposit(self, account, amount):
        self.executed += 1
        return super().deposit(account, amount)

    def withdraw(self, account, amount):
        self.executed += 1
        return super().withdraw(account, amount)

    def transfer(self, source, destination, amount):
        self.executed += 1
        return super().transfer(source, destination, amount)


class BankBatch(Workload):
    """Six processors, case 4 with batch signatures, a 3-replica teller
    invoking deposits, withdrawals and intra-bank transfers (two-way)."""

    name = "bank-batch"
    REF_START, REF_INTERVAL = 0.05, 0.001
    SAT_START, SAT_COUNT = 1.2, 1000
    horizon = 2.3
    SERVERS, CLIENTS = (0, 1, 2), (3, 4, 5)
    MEASURED = 3

    def build(self):
        config = ImmuneConfig(
            case=SurvivabilityCase.FULL_SURVIVABILITY, seed=self.seed, batch_signatures=True
        )
        immune = ImmuneSystem(
            6, config=config, trace_kinds=frozenset(), trace_max_records=1000,
            keystore=_keystore(config),
        )
        self.system = immune
        server = self.server = immune.deploy(
            "bank", BANK_IDL, lambda pid: _Bank(), list(self.SERVERS)
        )
        client = immune.deploy_client("teller", list(self.CLIENTS))
        stubs = {"bank": dict(immune.client_stubs(client, BANK_IDL, server))}
        scheduler = immune.scheduler
        send = _sender(stubs, immune.processors, self.MEASURED, scheduler)
        self.model = _Bank()
        loop = self.loop = OpenLoop(scheduler)
        loop.schedule(
            "reference", self.REF_START, self.REF_INTERVAL, REFERENCE_MIN, send,
            self._mixed_op, self.CLIENTS,
        )
        loop.schedule(
            "saturation", self.SAT_START, SATURATING_INTERVAL, self.SAT_COUNT, send,
            self._deposit_op, self.CLIENTS,
        )
        immune.start()

    # the generated inputs: accounts and amounts from the seed; the
    # expected reply of each comes from a local model run in send order

    def _account(self):
        return self.rng.randrange(1, _Bank.ACCOUNTS + 1)

    def _mixed_op(self, k):
        kind = self.rng.random()
        amount = self.rng.randrange(1, 1000)
        if kind < 0.4:
            op, op_args = "deposit", (self._account(), amount)
        elif kind < 0.7:
            op, op_args = "withdraw", (self._account(), amount)
        else:
            src = self._account()
            op, op_args = "transfer", (src, src % _Bank.ACCOUNTS + 1, amount)
        return (op, "bank", op_args), getattr(self.model, op)(*op_args)

    def _deposit_op(self, k):
        op_args = (self._account(), self.rng.randrange(1, 1000))
        return ("deposit", "bank", op_args), self.model.deposit(*op_args)

    def finish(self):
        loop = self.loop
        failed = sum(1 for inv in loop.invocations if not _exactly_once(inv, inv.clients))
        self.check(failed == 0, "%d invocations lost, duplicated or wrong" % failed)
        self.check(loop.late == 0, "generator ran late %d times" % loop.late)
        servants = self.server.servants
        states = {servant.get_state() for servant in servants.values()}
        self.check(len(states) == 1, "bank replicas disagree")
        for pid, servant in sorted(servants.items()):
            self.check(
                servant.total_assets() == self.model.total_assets(),
                "P%d bank total %d != expected %d"
                % (pid, servant.total_assets(), self.model.total_assets()),
            )
            self.check(
                servant.executed == len(loop.invocations),
                "P%d executed %d of %d operations"
                % (pid, servant.executed, len(loop.invocations)),
            )
        metrics = {
            "reference": self.reference_samples(loop),
            "capacity": self.capacity(loop),
        }
        return len(loop.invocations), failed, metrics


# ----------------------------------------------------------------------
# geo-faults: a two-site federation of rings under a crash and a
# corrupted site gateway, observability on
# ----------------------------------------------------------------------


class _Teller:
    """One replicated teller group: its stubs per branch and its own
    account at every branch, so its expected replies follow from its
    own send order alone."""

    def __init__(self, index, home, pids, stubs, processors):
        self.index = index
        #: (site, ring)
        self.home = home
        self.account = index + 1
        self.pids = tuple(pids)
        self.measured = min(self.pids)
        self.stubs = stubs
        self.processors = processors


class GeoFaults(Workload):
    """Two sites of two rings each, case 4, metrics, spans and forensics on.

    Tellers at both sites mix same-ring, cross-ring (cluster gateway)
    and cross-site (site gateway) invocations: deposits, withdrawals and
    GeoBank-style transfers whose deposit each teller replica sends on
    its own voted withdraw reply.
    """

    name = "geo-faults"
    SITES = (("alpha", 2), ("beta", 2))
    PROCS_PER_RING = 7
    #: one branch per ring: name -> (site, ring)
    BRANCHES = {"a0": ("alpha", 0), "a1": ("alpha", 1), "b0": ("beta", 0), "b1": ("beta", 1)}
    TELLERS_PER_RING = 6
    #: each teller fires one operation per period, well above a
    #: cross-site round trip, so a transfer's chained deposit is sent
    #: before the teller's next operation at every replica
    PERIOD = 0.2
    #: where each operation's branch is, cycled by every teller from a
    #: seeded offset: the teller's ring (50%), its site's other ring
    #: (30%), the other site (20%)
    ROUTES = ("same", "cross-ring", "same", "cross-site", "same",
              "cross-ring", "same", "cross-site", "same", "cross-ring")
    #: reference operations that are transfers: 2 of every 5
    TRANSFER_EVERY, TRANSFERS_PER = 5, 2
    REF_START, REF_END = 0.1, 6.6
    SAT_START, SAT_COUNT = 6.8, 100
    FAULT_START, FAULT_END = 8.3, 10.9
    horizon = 11.4
    CRASHED_BRANCH, CORRUPT_LINK = "a1", ("alpha", "beta")

    def build(self):
        from repro.obs import Observability
        from repro.obs.forensics import ForensicsHub
        from repro.wan import SiteSpec, WanConfig, WanManager

        config = WanConfig(
            sites=tuple(
                SiteSpec(name, num_rings=rings, procs_per_ring=self.PROCS_PER_RING)
                for name, rings in self.SITES
            ),
            case=SurvivabilityCase.FULL_SURVIVABILITY,
            seed=self.seed,
            latency=0.010,
        )
        self.obs = Observability(forensics=ForensicsHub())
        self.plan = FaultPlan()
        wan = self.system = WanManager(config=config, obs=self.obs, fault_plan=self.plan)
        scheduler = wan.scheduler
        self.branches = {
            name: wan.deploy("bank.%s" % name, BANK_IDL, lambda pid: _Bank(), site=site, ring=ring)
            for name, (site, ring) in sorted(self.BRANCHES.items())
        }
        self.tellers = []
        homes = sorted(self.BRANCHES.values()) * self.TELLERS_PER_RING
        for i, (site, ring) in enumerate(homes):
            handle = wan.deploy_client("bank.teller%d" % i, site=site, ring=ring)
            stubs = {
                name: dict(wan.client_stubs(handle, BANK_IDL, branch))
                for name, branch in self.branches.items()
            }
            processors = wan.sites[site].rings[ring].processors
            self.tellers.append(_Teller(i, (site, ring), handle.replica_procs, stubs, processors))
        #: (teller index, branch) -> balance, in each teller's send order
        self.balances = {
            (t.index, name): _Bank.INITIAL for t in self.tellers for name in self.branches
        }
        self.ops_per_branch = {name: 0 for name in self.branches}
        loop = self.loop = OpenLoop(scheduler)
        self._schedule_tellers("reference", self.REF_START, self.REF_END, transfers=True)
        teller = self.tellers[0]
        loop.schedule(
            "saturation", self.SAT_START, SATURATING_INTERVAL, self.SAT_COUNT,
            self._send(teller), lambda k: self._single(teller, "deposit", "a0"), teller.pids,
        )
        # single operations only while faults are injected: a transfer
        # chained on a reply stalled by the outage would fire inside a
        # teller's next period
        self._schedule_tellers("faults", self.FAULT_START, self.FAULT_END, transfers=False)

        # faults, on different rings: a directed corruption of one
        # alpha->beta site-gateway replica (convicted at beta) and a
        # crash of one replica of the branch on alpha's ring 1
        self.corrupt_at = self.crash_at = self.FAULT_START
        src, dst = self.CORRUPT_LINK
        replica = wan.corrupt_site_gateway(
            src, dst, index=0, at_time=self.corrupt_at, direction=src
        )
        self.corrupt_pid = replica.pid_b
        crash_site, crash_ring = self.BRANCHES[self.CRASHED_BRANCH]
        self.crash_pid = max(self.branches[self.CRASHED_BRANCH].replica_procs)
        self.plan.schedule_crash(self.crash_pid, self.crash_at)
        self.plan.arm_crashes(scheduler, wan.sites[crash_site].rings[crash_ring].processors)
        for fault in self.plan.ground_truth():
            self.obs.forensics.record_ground_truth(
                fault["fault_id"], fault["kind"], fault["culprit"], fault["time"]
            )
        self.installs = []
        beta0 = wan.sites["beta"].rings[0]
        observer = min(pid for pid in beta0.endpoints if pid != self.corrupt_pid)
        _installs_observer(beta0.endpoints[observer], scheduler, self.installs)
        wan.start()

    # the generated inputs ------------------------------------------------

    def _single(self, teller, op, branch, amount=None):
        """Model one deposit or withdrawal; returns ``(args, expected)``."""
        if amount is None:
            amount = self.rng.randrange(1, 1000)
        key = (teller.index, branch)
        self.balances[key] += amount if op == "deposit" else -amount
        self.ops_per_branch[branch] += 1
        return (op, branch, (teller.account, amount)), self.balances[key]

    def _send(self, teller):
        return _sender(teller.stubs, teller.processors, teller.measured, self.system.scheduler)

    def _transfer_sender(self, teller, deposit):
        scheduler = self.system.scheduler

        def send(inv):
            _op, src, args = inv.args
            _dop, dst, dargs = deposit.args
            for pid, stub in teller.stubs[src].items():
                if teller.processors[pid].crashed:
                    continue
                dst_stub = teller.stubs[dst][pid]

                def send_deposit(value, pid=pid, dst_stub=dst_stub):
                    if value < 0:
                        return
                    if pid == teller.measured:
                        deposit.due = scheduler.now
                    dst_stub.deposit(
                        *dargs, reply_to=_recorder(deposit, pid, teller.measured, scheduler)
                    )

                reply = _recorder(inv, pid, teller.measured, scheduler, send_deposit)
                stub.withdraw(*args, reply_to=reply)

        return send

    def _branches_on(self, teller, route):
        site, ring = teller.home
        if route == "same":
            match = lambda home: home == (site, ring)  # noqa: E731
        elif route == "cross-ring":
            match = lambda home: home[0] == site and home[1] != ring  # noqa: E731
        else:
            match = lambda home: home[0] != site  # noqa: E731
        return sorted(name for name, home in self.BRANCHES.items() if match(home))

    def _schedule_tellers(self, phase, start, end, transfers):
        """Every teller fires one operation per period over ``[start, end)``.

        Routes and transfers follow fixed cycles from seeded offsets, so
        every seed offers the same mix; the seed picks offsets, amounts,
        remote-site branches and deposit-or-withdraw.
        """
        routes = self.ROUTES
        for teller in self.tellers:
            at = start + self.PERIOD * teller.index / len(self.tellers)
            k = self.rng.randrange(len(routes))
            j = self.rng.randrange(self.TRANSFER_EVERY)
            while at < end:
                src = self.rng.choice(self._branches_on(teller, routes[k % len(routes)]))
                if transfers and j % self.TRANSFER_EVERY < self.TRANSFERS_PER:
                    route = routes[(k + 1) % len(routes)]
                    dst = self.rng.choice(
                        [b for b in self._branches_on(teller, route) if b != src]
                        or [b for b in self._branches_on(teller, "cross-site") if b != src]
                    )
                    amount = self.rng.randrange(1, 1000)
                    w_args, w_expected = self._single(teller, "withdraw", src, amount)
                    d_args, d_expected = self._single(teller, "deposit", dst, amount)
                    # the deposit is due when the measured replica sends it
                    deposit = Invocation(phase, None, d_args, d_expected, teller.pids)
                    self.loop.invocations.append(deposit)
                    send = self._transfer_sender(teller, deposit)
                    self.loop.add(phase, at, send, w_args, w_expected, teller.pids)
                else:
                    op = self.rng.choice(("deposit", "withdraw"))
                    args, expected = self._single(teller, op, src)
                    self.loop.add(phase, at, self._send(teller), args, expected, teller.pids)
                k += 1
                j += 1
                at += self.PERIOD

    def finish(self):
        from repro.obs.forensics import score

        loop = self.loop
        # client replicas on the crashed or convicted processor stop
        # receiving replies; every other replica must get each one once
        faulty = (self.crash_pid, self.corrupt_pid)
        failed = sum(
            1 for inv in loop.invocations
            if not _exactly_once(inv, [pid for pid in inv.clients if pid not in faulty])
        )
        self.check(failed == 0, "%d invocations lost, duplicated or wrong" % failed)
        self.check(loop.late == 0, "generator ran late %d times" % loop.late)
        for name, handle in sorted(self.branches.items()):
            live = {
                pid: servant for pid, servant in handle.servants.items()
                if pid != self.crash_pid
            }
            states = {servant.get_state() for servant in live.values()}
            self.check(len(states) == 1, "replicas of branch %s disagree" % name)
            expected_total = _Bank.INITIAL * _Bank.ACCOUNTS + sum(
                self.balances[(t.index, name)] - _Bank.INITIAL for t in self.tellers
            )
            for pid, servant in sorted(live.items()):
                self.check(
                    servant.executed == self.ops_per_branch[name],
                    "branch %s P%d executed %d of %d operations"
                    % (name, pid, servant.executed, self.ops_per_branch[name]),
                )
                self.check(
                    servant.total_assets() == expected_total,
                    "branch %s P%d holds %d, expected %d"
                    % (name, pid, servant.total_assets(), expected_total),
                )
        scorecard = score(self.obs.forensics)
        self.check(
            scorecard["precision"] == 1.0 and scorecard["recall"] == 1.0,
            "forensic precision %.3f recall %.3f" % (scorecard["precision"], scorecard["recall"]),
        )
        crashed_ring = {
            name for name, home in self.BRANCHES.items()
            if home == self.BRANCHES[self.CRASHED_BRANCH]
        }
        on_crashed_ring = [
            inv for inv in loop.invocations
            if inv.args[1] in crashed_ring and inv.due is not None
        ]
        metrics = {
            "reference": self.reference_samples(loop),
            "capacity": self.capacity(loop),
            "outage": self.outage(on_crashed_ring, self.crash_at),
            "detect": self.detect(self.installs, self.corrupt_at, self.corrupt_pid),
        }
        return len(loop.invocations), failed, metrics


# ----------------------------------------------------------------------
# elastic-ramp: a ramping bank on a cluster that splits, migrates,
# churns and merges
# ----------------------------------------------------------------------


def _measured_ramp(workload, cluster, **kwargs):
    """A :class:`~repro.workloads.ramp.RampBank` whose shots are recorded.

    It replaces the ramp's shot scheduling (keeping its bookkeeping, so
    the ramp's own audit and settled verdict still apply) to record each
    withdraw and deposit as an :class:`Invocation`.  Stream ``s`` uses
    account ``s + 1`` at every branch; the seed picks each shot's source
    and destination branch.
    """
    from repro.workloads.ramp import RampBank

    class MeasuredRamp(RampBank):
        def _schedule_shot(self, s, k, at):
            src, dst = workload.rng.sample(self.branch_names, 2)
            account = s + 1
            amount = s * self._AMOUNT_STRIDE + k + 1
            label = "s%d/%d:%s->%s:%d" % (s, k, src, dst, amount)
            state = {"withdraw": 0, "deposit": 0, "ok": True}
            self.transfers[label] = state
            self._scheduled += 1
            stubs = self._stubs[s]
            teller = self.tellers[s]
            pids = tuple(teller.replica_procs)
            measured = min(pids)
            # expected replies come from replaying the branches' audit
            # ledgers once the run is over (see ElasticRamp.finish)
            deposit = Invocation("reference", None, ("deposit", dst, (account, amount)), None, pids)
            workload.loop.invocations.append(deposit)
            scheduler = cluster.scheduler
            dst_stub_by_pid = dict(stubs[dst])
            ramp = self

            def send(inv):
                for pid, stub in stubs[src]:
                    dst_stub = dst_stub_by_pid[pid]

                    def on_withdrawn(value, pid=pid, dst_stub=dst_stub):
                        state["withdraw"] += 1
                        if value < 0:
                            state["ok"] = False
                            ramp.failed.append((label, "withdraw", value))
                            return
                        if pid == measured:
                            deposit.due = scheduler.now

                        def on_deposited(value):
                            state["deposit"] += 1
                            if value < 0:
                                state["ok"] = False
                                ramp.failed.append((label, "deposit", value))

                        reply = _recorder(deposit, pid, measured, scheduler, on_deposited)
                        dst_stub.deposit(account, amount, reply_to=reply)

                    reply = _recorder(inv, pid, measured, scheduler, on_withdrawn)
                    stub.withdraw(account, amount, reply_to=reply)

            workload.loop.add(
                "reference", at, send, ("withdraw", src, (account, amount)), None, pids
            )

    return MeasuredRamp(cluster, **kwargs)


class ElasticRamp(Workload):
    """One ring growing to two: a ramping bank, autoscaler split and
    merge, scripted migration, churn, and a gateway corrupted inside a
    migration's hold window.  Case 3 (voting and digests, unsigned)."""

    name = "elastic-ramp"
    BRANCHES, STREAMS = 4, 24
    PERIOD, STAGGER = 0.1, 0.05
    RAMP_START, RAMP_END = 0.3, 5.1
    GROW_AT, MIGRATE_AT, CORRUPT_AT = 1.7, 2.2, 2.23
    SAT_START, SAT_COUNT = 5.2, 500
    FAULT_START, FAULT_END, FAULT_INTERVAL = 6.3, 7.7, 0.02
    RETIRE_AT = 6.5
    horizon = 8.0
    INITIAL = 10 ** 9
    FORENSIC_CAPACITY = 1 << 15

    def build(self):
        from repro.elastic import AutoscalerPolicy, ElasticCluster, ElasticConfig
        from repro.obs import Observability, SeriesSampler
        from repro.obs.forensics import ForensicsHub

        config = ElasticConfig(
            initial_rings=1, max_rings=2, procs_per_ring=6, replication_degree=3,
            gateway_degree=3, case=SurvivabilityCase.MAJORITY_VOTING, seed=self.seed,
        )
        # flight recorders large enough to keep the whole run's evidence:
        # the default ring buffers evict the conviction of the corrupted
        # gateway long before the scorecard is taken
        self.obs = Observability(forensics=ForensicsHub(capacity=self.FORENSIC_CAPACITY))
        cluster = self.system = ElasticCluster(
            config=config, obs=self.obs, keystore=_keystore(config.ring_config(0))
        )
        scheduler = cluster.scheduler
        self.loop = OpenLoop(scheduler)
        self.ramp = _measured_ramp(
            self, cluster, branches=self.BRANCHES, accounts_per_branch=self.STREAMS,
            initial_balance=self.INITIAL, streams=self.STREAMS, period=self.PERIOD,
            stream_stagger=self.STAGGER, start=self.RAMP_START,
        )
        sampler = SeriesSampler(self.obs.registry, period=0.1, families={"rm.delivered_to_orb"})
        sampler.start(scheduler)
        cluster.enable_autoscaler(
            sampler,
            AutoscalerPolicy(
                decision_period=0.25, window=0.25, split_threshold=1500.0,
                merge_threshold=50.0, cooldown=1.0,
            ),
        )
        self.epoch_audits = []
        cluster.coordinator.listeners.append(self._on_epoch)
        self.ramp.schedule(until=self.RAMP_END)

        # a probe group outside the ramp's audit: the saturating burst
        # and the traffic that measures the outage after the retirement
        self.probe = cluster.deploy("bench.probe", BANK_IDL, lambda pid: _Bank(), ring=0)
        prober = cluster.deploy_client("bench.prober", ring=0)
        stubs = {"probe": dict(cluster.client_stubs(prober, BANK_IDL, self.probe))}
        pids = tuple(prober.replica_procs)
        send = _sender(stubs, cluster.rings[0].processors, min(pids), scheduler)
        self.probe_model = _Bank()

        def deposit(k):
            args = (self.rng.randrange(1, _Bank.ACCOUNTS + 1), self.rng.randrange(1, 1000))
            return ("deposit", "probe", args), self.probe_model.deposit(*args)

        self.loop.schedule(
            "saturation", self.SAT_START, SATURATING_INTERVAL, self.SAT_COUNT, send, deposit, pids
        )
        count = int(round((self.FAULT_END - self.FAULT_START) / self.FAULT_INTERVAL))
        self.loop.schedule(
            "faults", self.FAULT_START, self.FAULT_INTERVAL, count, send, deposit, pids
        )

        # churn, a scripted migration, a corruption inside its hold
        self.churn = {}
        self.scripted = []
        self.installs = []
        scheduler.at(self.GROW_AT, self._grow, label="perfbench.grow")
        scheduler.at(
            self.MIGRATE_AT,
            lambda: cluster.migrate("bank.branch1", 1, done=self.scripted.append),
            label="perfbench.migrate",
        )
        scheduler.at(self.CORRUPT_AT, self._corrupt, label="perfbench.corrupt")
        scheduler.at(self.RETIRE_AT, self._retire, label="perfbench.retire")
        cluster.start()

    def _on_epoch(self, record):
        if not record["skipped"]:
            self.epoch_audits.append(self.ramp.audit()["conserved"])

    def _grow(self):
        self.churn["pid"] = self.system.grow_processor(0)

    def _corrupt(self):
        cluster = self.system
        replica = cluster.corrupt_gateway(0, 1, index=0, direction=0)
        self.corrupt_pid = replica.pid_b
        ring1 = cluster.rings[1]
        observer = min(pid for pid in ring1.endpoints if pid != self.corrupt_pid)
        _installs_observer(ring1.endpoints[observer], cluster.scheduler, self.installs)

    def _retire(self):
        self.system.retire_processor(self.churn["pid"])

    def _replay_ledgers(self):
        """Set each ramp invocation's expected reply to what its branch
        computed: replay the branch's audit ledger (execution order) on
        the seeded balances.  Amounts are unique, so a ledger entry names
        its invocation, and stream ``s`` (amount // stride) owns account
        ``s + 1``."""
        stride = self.ramp._AMOUNT_STRIDE
        result = {}
        for name, handle in self.ramp.branches.items():
            servant = handle.servants[min(handle.servants)]
            balances = {}
            for kind, amount in servant.ledger:
                account = amount // stride + 1
                balance = balances.get(account, self.INITIAL)
                balance += amount if kind == "d" else -amount
                balances[account] = balance
                result[(name, kind, amount)] = balance
        for inv in self.loop.invocations:
            op, branch, args = inv.args
            if branch != "probe":
                inv.expected = result.get((branch, op[0], args[1]))

    def finish(self):
        from repro.obs.forensics import score

        cluster = self.system
        loop = self.loop
        self._replay_ledgers()
        faulty = (self.churn.get("pid"), getattr(self, "corrupt_pid", None))
        failed = sum(
            1 for inv in loop.invocations
            if not _exactly_once(inv, [pid for pid in inv.clients if pid not in faulty])
        )
        self.check(failed == 0, "%d invocations lost, duplicated or wrong" % failed)
        self.check(loop.late == 0, "generator ran late %d times" % loop.late)
        settled = self.ramp.settled()
        self.check(settled["ok"], "ramp not settled: %r" % (settled,))
        self.check(
            settled["scheduled"] >= REFERENCE_MIN,
            "ramp completed %d < %d transfers" % (settled["scheduled"], REFERENCE_MIN),
        )
        self.check(
            bool(self.epoch_audits) and all(self.epoch_audits),
            "bank not conserved at every migration epoch",
        )
        decisions = [action for _at, action, _detail in cluster.autoscaler.decisions]
        self.check("split" in decisions and "merge" in decisions, "autoscaler %r" % decisions)
        real = [r for r in self.scripted if not r["skipped"]]
        self.check(
            bool(real) and real[0]["completed"] - real[0]["hold_seconds"]
            <= self.CORRUPT_AT <= real[0]["completed"],
            "corruption not inside the scripted migration's hold window",
        )
        scorecard = score(self.obs.forensics)
        self.check(
            scorecard["precision"] == 1.0 and scorecard["recall"] == 1.0,
            "forensic precision %.3f recall %.3f" % (scorecard["precision"], scorecard["recall"]),
        )
        probes = [inv for inv in loop.invocations if inv.phase == "faults"]
        metrics = {
            "reference": self.reference_samples(loop),
            "capacity": self.capacity(loop),
            "outage": self.outage(probes, self.RETIRE_AT),
            "detect": self.detect(self.installs, self.CORRUPT_AT, self.corrupt_pid),
        }
        return len(loop.invocations), failed, metrics


WORKLOADS = {cls.name: cls for cls in (Fig7Case4, BankBatch, GeoFaults, ElasticRamp)}
