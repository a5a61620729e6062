"""Voted relays: re-origination between rings and between sites.

An invocation whose client group and server group live on different
rings cannot ride one token — each ring is its own total order.  A
gateway closes the gap with the same machinery the paper uses inside a
ring, so the hop weakens none of the survivability claims:

* every pair of *sides* (two rings of a cluster, or two sites of a
  federation) is joined by a link of gateway replicas, each with one
  processor identity on each side, run as one logical entity;
* each replica independently observes the source side's total order,
  **votes** the copies of messages addressed to groups homed on the
  destination side exactly as a server-side Replication Manager would
  (majority of the source group's degree, values compared by digest),
  and re-originates the single winning message on the destination side
  under its own processor identity there;
* the destination side registers the remote group with the gateway
  pids as its members, so the existing voters take a majority across
  the gateway copies — one Byzantine gateway replica that corrupts or
  replays traffic is outvoted by the others, and the value-fault
  machinery attributes it;
* duplicate suppression reuses :class:`~repro.core.duplicates.
  DuplicateFilter` keyed by the operation identifier, so each replica
  forwards each operation at most once and end-to-end delivery stays
  exactly-once across any number of hops.

Replies make the mirror-image hop.  One algorithm, :class:`VotedRelay`,
serves both levels; only the *hop* differs.  :class:`RingHop` joins two
rings of one cluster (two NICs on one chassis): the winner lands at
once.  :class:`WanHop` joins two sites' backbones (ring 0) over the
:class:`~repro.sim.network.WanTopology`: the winner pays the directed
latency and serialisation time, and may be dropped by a partition
window or a loss burst — both decided *at send time*, so traffic
already in flight when a partition begins still lands.  Span stages are
marked when a copy *lands*, so WAN stage deltas carry the flight and
the critical path prices the ``wan_hop`` cause off the latency matrix.
"""

from repro.core.duplicates import DuplicateFilter
from repro.core.identifiers import (
    BASE_GROUP,
    ImmuneCodecError,
    ImmuneMessage,
    KIND_INVOCATION,
    KIND_RESPONSE,
)
from repro.core.voting import VoteDecision, Voter

#: simulated CPU cost of voting + re-originating one cross-ring message
GATEWAY_FORWARD_COST = 25e-6
#: simulated CPU cost of voting + re-originating one cross-site message
WAN_FORWARD_COST = 40e-6


def _flip_last(body, index):
    """A Byzantine ring gateway's corruption: flip the final byte."""
    if not body:
        return b"\xff"
    return body[:-1] + bytes([body[-1] ^ 0xFF])


def _flip_indexed(body, index):
    """A Byzantine site gateway's corruption, distinct per replica.

    Flipping a replica-index-dependent byte makes a *whole-site*
    compromise fail safe: the compromised site's replicas disagree with
    each other as well as with the truth, so the receiving voters never
    assemble a majority and deliver nothing — omission, not a wrong
    value.  (A single corrupt replica is simply outvoted 2-of-3.)
    """
    if not body:
        return bytes([0x80 + (index & 0x7F)])
    pos = index % len(body)
    return body[:pos] + bytes([body[pos] ^ 0xFF]) + body[pos + 1:]


class RingHop:
    """The immediate hop between two rings of one cluster."""

    side_name = "ring"
    metric_prefix = "gateway"
    metrics = (("forwarded", "forwarded"), ("suppressed", "duplicates_suppressed"))
    stats_keys = ("forwarded", "suppressed", "ignored")
    stages = ("gateway_forwarded", "reply_gateway_forwarded")
    forensic = "gateway_forward"
    cost = GATEWAY_FORWARD_COST
    category = "gateway.forward"
    corrupted = staticmethod(_flip_last)

    def __init__(self, cluster):
        self.cluster = cluster
        #: the home lookup every delivery makes, bound once
        self.home = cluster.directory.home_ring

    def side(self, ring):
        """(ImmuneSystem, obs view, tracer ring argument) of one ring."""
        return self.cluster.rings[ring], self.cluster.ring_obs(ring), ring

    def send(self, relay, message, encoded, corrupt):
        relay.land(message, encoded, corrupt)


class WanHop:
    """The WAN flight between two sites' backbones, lossy and partitionable."""

    side_name = "site"
    metric_prefix = "wan"
    metrics = (
        ("forwarded", "forwarded"),
        ("suppressed", "duplicates_suppressed"),
        ("dropped", "dropped"),
    )
    stats_keys = ("forwarded", "suppressed", "dropped", "ignored")
    stages = ("wan_forwarded", "reply_wan_forwarded")
    forensic = "wan_forward"
    cost = WAN_FORWARD_COST
    category = "wan.forward"
    corrupted = staticmethod(_flip_indexed)

    def __init__(self, wan):
        self.wan = wan
        self.home = wan.directory.home_site

    def side(self, site):
        cluster = self.wan.sites[site]
        return cluster.rings[0], cluster.ring_obs(0), cluster.ring_base

    def send(self, relay, message, encoded, corrupt):
        wan = self.wan
        scheduler = wan.scheduler
        now = scheduler.now
        topology = wan.topology
        # Loss and partitions are decided at send time: cutting a cable
        # does not recall packets already in flight.
        if topology.should_drop(relay.src, relay.dst, now, wan.wan_rng):
            relay.count("dropped")
            if relay.forensics is not None:
                relay.forensics.record(
                    "wan_drop",
                    source=message.source_group,
                    target=message.target_group,
                    op_num=message.op_num,
                    from_site=relay.src,
                    to_site=relay.dst,
                    partitioned=topology.partitioned(relay.src, relay.dst, now),
                )
            return
        flight = topology.transit_time(relay.src, relay.dst, len(encoded))
        scheduler.at(
            now + flight,
            lambda: relay.land(message, encoded, corrupt),
            label="wan.deliver",
        )


class VotedRelay:
    """One gateway replica's forwarding path from one side to its peer.

    Listens to every totally-ordered delivery on the source side (via
    the source-side endpoint of its gateway replica), votes copies of
    messages addressed to groups homed on the destination side, and
    re-originates each winner once there through the link's hop.
    """

    def __init__(self, replica, src, dst, src_pid, dst_pid):
        self.replica = replica
        hop = replica.link.hop
        self.hop = hop
        self.src = src
        self.dst = dst
        self.src_pid = src_pid
        self.dst_pid = dst_pid
        #: Byzantine toggle for this direction only
        self.corrupt = False
        self._home = hop.home
        src_immune, obs, self._trace_src = hop.side(src)
        dst_immune, _dst_obs, self._trace_dst = hop.side(dst)
        self._src_endpoint = src_immune.endpoints[src_pid]
        self._dst_endpoint = dst_immune.endpoints[dst_pid]
        self._src_proc = src_immune.processors[src_pid]
        self._dst_proc = dst_immune.processors[dst_pid]
        #: the source side's group table (this pid's RM view): voting
        #: thresholds for the source group come from here
        self._groups = src_immune.managers[src_pid].groups
        self._digest_fn = src_immune.config.digest_fn()
        self._voters = {}
        self.dup_filter = DuplicateFilter()
        self._obs = obs
        self._spans = obs.spans if obs is not None else None
        self._metrics = {}
        if obs is not None:
            labels = {"proc": src_pid, "to_" + hop.side_name: dst}
            for key, name in hop.metrics:
                self._metrics[key] = obs.registry.counter(
                    hop.metric_prefix + "." + name, **labels
                )
        if obs is not None and obs.forensics is not None:
            self.forensics = obs.forensics.recorder(src_pid)
        else:
            self.forensics = None
        # the causal trace, scoped to the *source* side: the vote this
        # relay merges happens on the source side's total order
        self._tracer = getattr(obs, "trace", None) if obs is not None else None
        self.stats = dict.fromkeys(hop.stats_keys, 0)
        self._src_endpoint.on_deliver(self._on_deliver)

    def count(self, key):
        self.stats[key] += 1
        metric = self._metrics.get(key)
        if metric is not None:
            metric.inc()

    # ------------------------------------------------------------------
    # the forwarding path
    # ------------------------------------------------------------------

    def _on_deliver(self, sender_id, seq, dest_group, payload):
        if dest_group == BASE_GROUP:
            return  # membership/fault traffic never leaves its ring
        if self._home(dest_group) != self.dst:
            return  # not ours: local traffic, or another link's peer
        try:
            message = ImmuneMessage.decode_shared(payload)
        except ImmuneCodecError:
            return
        if message.replica_proc != sender_id or message.target_group != dest_group:
            return  # masquerade above the multicast layer
        if message.kind not in (KIND_INVOCATION, KIND_RESPONSE):
            self.stats["ignored"] += 1
            return
        if self._src_proc.crashed or self._dst_proc.crashed or self._dst_endpoint.halted:
            return  # a dead gateway forwards nothing; its peers carry on
        voter = self._voters.get(dest_group)
        if voter is None:
            voter = Voter(
                dest_group,
                self._groups,
                self._digest_fn,
                obs=self._obs,
                proc_id=self.src_pid,
            )
            self._voters[dest_group] = voter
        op_key = (message.kind, message.source_group, message.target_group, message.op_num)
        outcome = voter.add_copy(
            message.source_group, op_key, message.replica_proc, message.body
        )
        if not isinstance(outcome, VoteDecision):
            return  # copies still short of a majority, or a late fault
        if not self.dup_filter.mark_delivered(op_key):
            self.count("suppressed")
            return
        self._forward(message, outcome.body)

    def _forward(self, message, body):
        hop = self.hop
        self._src_proc.charge(hop.cost, hop.category)
        # Decided once, here: the copy's bytes and its forensic record
        # agree even if the relay turns Byzantine while it is in flight.
        corrupt = self.corrupt
        if corrupt:
            body = hop.corrupted(body, self.replica.index)
        wrapped = ImmuneMessage(
            message.kind,
            message.source_group,
            message.op_num,
            self.dst_pid,
            message.target_group,
            body,
        )
        hop.send(self, message, wrapped.encode(), corrupt)

    def land(self, message, encoded, corrupt):
        """The winner reaches the destination side and is re-originated."""
        if self._dst_proc.crashed or self._dst_endpoint.halted:
            return
        self.count("forwarded")
        if message.kind == KIND_INVOCATION:
            trace_key, phase = (message.source_group, message.op_num), "req"
            stage = self.hop.stages[0]
        else:
            trace_key, phase = (message.target_group, message.op_num), "rep"
            stage = self.hop.stages[1]
        if self._spans is not None:
            self._spans.mark(trace_key, stage)
        if self._tracer is not None:
            self._tracer.mark_stage(trace_key, stage)
            # The fork: each gateway replica hangs its own gw_forward
            # node off the source side's vote_decided node, and its
            # re-originated bytes register so the destination side's
            # copy/vote nodes merge the branches back together.
            self._tracer.gateway_forwarded(
                trace_key, phase, self.dst_pid,
                self._trace_src, self._trace_dst, corrupt,
            )
            self._tracer.register_payload(
                encoded, trace_key, phase, ("gw_forward", phase, self.dst_pid)
            )
        if self.forensics is not None:
            side = self.hop.side_name
            self.forensics.record(
                self.hop.forensic,
                kind="invocation" if message.kind == KIND_INVOCATION else "response",
                source=message.source_group,
                target=message.target_group,
                op_num=message.op_num,
                **{"from_" + side: self.src, "to_" + side: self.dst},
                via=(self.src_pid, self.dst_pid),
                corrupt=corrupt,
            )
        self._dst_endpoint.multicast(message.target_group, encoded)


class GatewayReplica:
    """One logical gateway entity of a link: a pid on each side and a
    relay in each direction."""

    def __init__(self, link, index, pid_a, pid_b):
        self.link = link
        self.index = index
        self.pid_a = pid_a
        self.pid_b = pid_b
        self.forward_ab = VotedRelay(self, link.side_a, link.side_b, pid_a, pid_b)
        self.forward_ba = VotedRelay(self, link.side_b, link.side_a, pid_b, pid_a)

    def stats(self):
        return {
            "a_to_b": dict(self.forward_ab.stats),
            "b_to_a": dict(self.forward_ba.stats),
        }

    def __repr__(self):
        corrupt = self.forward_ab.corrupt or self.forward_ba.corrupt
        return "GatewayReplica(%s<->%s, P%d/P%d%s)" % (
            self.link.side_a,
            self.link.side_b,
            self.pid_a,
            self.pid_b,
            ", CORRUPT" if corrupt else "",
        )


class GatewayLink:
    """All gateway replicas joining one pair of sides over one hop."""

    def __init__(self, hop, side_a, side_b, pairs):
        self.hop = hop
        self.side_a = side_a
        self.side_b = side_b
        self.replicas = [
            GatewayReplica(self, i, pid_a, pid_b)
            for i, (pid_a, pid_b) in enumerate(pairs)
        ]

    def _check_side(self, side):
        if side not in (self.side_a, self.side_b):
            raise ValueError(
                "%r is not a %s of link %s<->%s"
                % (side, self.hop.side_name, self.side_a, self.side_b)
            )

    def side_pids(self, side):
        """This link's gateway pids on one of its two sides — the pids
        remote groups are registered under there."""
        self._check_side(side)
        if side == self.side_a:
            return tuple(r.pid_a for r in self.replicas)
        return tuple(r.pid_b for r in self.replicas)

    def relays_from(self, side):
        """The relays carrying traffic *out of* one of the sides."""
        self._check_side(side)
        if side == self.side_a:
            return [r.forward_ab for r in self.replicas]
        return [r.forward_ba for r in self.replicas]

    def corruption(self, index, direction=None):
        """The relays to arm and the culprit pids for turning replica
        ``index`` Byzantine.

        With ``direction`` (a side) only the relay leaving that side
        corrupts, and the culprit is its destination-facing pid — the
        one the destination's divergence detector can convict.  Without
        it both relays corrupt and both pids are culprits.  Raises
        :class:`ValueError` when ``direction`` is not a side.
        """
        replica = self.replicas[index]
        if direction is None:
            return [replica.forward_ab, replica.forward_ba], (replica.pid_a, replica.pid_b)
        relay = self.relays_from(direction)[index]
        return [relay], (relay.dst_pid,)

    def forwarded(self):
        """Copies landed by every relay of this link, both directions."""
        return sum(
            r.forward_ab.stats["forwarded"] + r.forward_ba.stats["forwarded"]
            for r in self.replicas
        )

    def stats(self):
        return {
            self.hop.side_name + "s": [self.side_a, self.side_b],
            "replicas": [r.stats() for r in self.replicas],
        }

    def __repr__(self):
        return "GatewayLink(%s<->%s, %d replicas)" % (
            self.side_a,
            self.side_b,
            len(self.replicas),
        )


def inject_corruption(scheduler, obs, relays, culprits, at_time, label,
                      kind="value_fault"):
    """Turn ``relays`` Byzantine, now or at ``at_time`` (a scheduler
    event named ``label``), and record ``kind`` ground truth against
    each culprit pid."""

    def arm():
        for relay in relays:
            relay.corrupt = True

    if at_time is None:
        arm()
    else:
        scheduler.at(at_time, arm, label=label)
    if obs is not None and obs.forensics is not None:
        from repro.obs.forensics import fault_id_for

        when = at_time if at_time is not None else scheduler.now
        for pid in culprits:
            obs.forensics.record_ground_truth(
                fault_id_for(kind, pid, when), kind, pid, when
            )
