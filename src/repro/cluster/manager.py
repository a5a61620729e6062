"""The cluster facade: several SecureRings behind one bind/invoke API.

A :class:`ClusterManager` owns one :class:`~repro.core.immune.
ImmuneSystem` per ring, all driven by a single shared discrete-event
scheduler (one timeline, deterministic across rings), numbered from
disjoint global processor-id ranges, sharing one key directory (a
gateway host is the same principal on both of its rings) and one
observability bundle seen through per-ring scoped views.  Workloads use
it exactly like a single deployment::

    cluster = ClusterManager(ClusterConfig(num_rings=2))
    server = cluster.deploy("ledger", LEDGER_IDL, factory)   # placed by hash
    client = cluster.deploy_client("driver")
    cluster.start()
    for pid, stub in cluster.client_stubs(client, LEDGER_IDL, server):
        stub.add(1)
    cluster.run(until=2.0)

Whether ``driver`` and ``ledger`` landed on the same ring or not is
invisible to the caller: the placement engine shards groups across
rings, and the gateway links carry cross-ring invocations with the same
voted, duplicate-suppressed, exactly-once semantics as intra-ring ones.
"""

import random

from repro.cluster.config import ClusterConfig, ClusterConfigError
from repro.cluster.gateway import GatewayLink, RingHop, inject_corruption
from repro.cluster.obsbridge import RingObservability
from repro.cluster.placement import PlacementEngine
from repro.core.immune import ImmuneSystem
from repro.crypto.keystore import KeyStore
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler


class ClusterDirectory:
    """Where every object group lives: group -> (home ring, replicas)."""

    def __init__(self):
        self._entries = {}

    def record(self, group_name, ring, procs):
        if group_name in self._entries:
            raise ClusterConfigError("group %r already bound" % group_name)
        self._entries[group_name] = (ring, tuple(procs))

    def rehome(self, group_name, ring, procs):
        """Atomically repoint a bound group (live migration cutover).

        The gateway forwarders consult :meth:`home_ring` at delivery
        time, so a rehome instantly re-routes cross-ring traffic toward
        the new home — no per-link reconfiguration step exists to get
        half-done.
        """
        if group_name not in self._entries:
            raise ClusterConfigError("group %r was never bound" % group_name)
        self._entries[group_name] = (ring, tuple(procs))

    def home_ring(self, group_name):
        entry = self._entries.get(group_name)
        return None if entry is None else entry[0]

    def procs(self, group_name):
        entry = self._entries.get(group_name)
        return () if entry is None else entry[1]

    def groups(self):
        return sorted(self._entries)

    def to_dict(self):
        return {
            name: {"ring": ring, "procs": list(procs)}
            for name, (ring, procs) in sorted(self._entries.items())
        }


class ClusterHandle:
    """A deployed group plus its home ring — quacks like a GroupHandle."""

    def __init__(self, handle, ring):
        self.handle = handle
        self.ring = ring

    @property
    def group_name(self):
        return self.handle.group_name

    @property
    def interface(self):
        return self.handle.interface

    @property
    def reference(self):
        return self.handle.reference

    @property
    def replica_procs(self):
        return self.handle.replica_procs

    @property
    def servants(self):
        return self.handle.servants

    def __repr__(self):
        return "ClusterHandle(%s on ring %d, procs %s)" % (
            self.group_name,
            self.ring,
            list(self.replica_procs),
        )


class ClusterManager:
    """A multi-ring Immune deployment on one shared simulation."""

    def __init__(
        self,
        config=None,
        obs=None,
        net_params=None,
        fault_plans=None,
        trace_kinds=frozenset(),
        scheduler=None,
        keystore=None,
        streams=None,
        ring_base=0,
    ):
        """``fault_plans`` maps ring index -> :class:`FaultPlan` so
        drills can crash or corrupt processors of a specific ring.

        ``scheduler``/``keystore``/``streams`` let :mod:`repro.wan`
        embed several clusters (one per site) in one simulation: all
        sites share a timeline and a key directory, while each site's
        ``streams`` subtree keeps its RNG draws independent of its
        peers'.  ``ring_base`` is the cumulative ring count of the
        sites constructed before this one, so flight-recorder and trace
        shard indices stay globally unique across the federation.
        """
        self.config = config or ClusterConfig()
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.obs = obs
        self.site = self.config.site
        self.ring_base = ring_base
        self.streams = (
            streams if streams is not None else RngStreams(self.config.seed)
        )
        self.directory = ClusterDirectory()
        self.placement = PlacementEngine(self.config)
        ring0 = self.config.ring_config(0)
        if keystore is not None:
            self.keystore = keystore
        elif self.config.case.replicated:
            self.keystore = KeyStore(
                random.Random(self.config.seed),
                modulus_bits=self.config.modulus_bits,
                digest_fn=ring0.digest_fn(),
            )
        else:
            self.keystore = None

        self.rings = []
        self._ring_obs = []
        self._net_params = net_params
        self._trace_kinds = trace_kinds
        fault_plans = fault_plans or {}
        for ring_index in range(self.config.num_rings):
            ring_obs = (
                RingObservability(
                    obs,
                    ring_index,
                    site=self.site,
                    shard=ring_base + ring_index,
                )
                if obs is not None
                else None
            )
            immune = ImmuneSystem(
                self.config.procs_per_ring,
                config=self.config.ring_config(ring_index),
                net_params=net_params,
                fault_plan=fault_plans.get(ring_index),
                trace_kinds=trace_kinds,
                obs=ring_obs,
                scheduler=self.scheduler,
                proc_ids=self.config.ring_pids(ring_index),
                keystore=self.keystore,
                streams=self.streams.spawn("ring%d" % ring_index),
            )
            self.rings.append(immune)
            self._ring_obs.append(ring_obs)

        #: pid -> Processor across all rings (pids are globally unique)
        self.processors = {}
        for immune in self.rings:
            self.processors.update(immune.processors)

        #: (low ring, high ring) -> GatewayLink, every ring pair joined
        self.links = {}
        self._hop = RingHop(self)
        for a in range(self.config.num_rings):
            for b in range(a + 1, self.config.num_rings):
                self._add_link(a, b)

        self._started = False
        if obs is not None:
            obs.registry.add_collector(self._collect_cluster_metrics)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def ring_obs(self, ring_index):
        """The ring-scoped observability view (None when obs is off)."""
        return self._ring_obs[ring_index]

    def _collect_cluster_metrics(self, registry):
        # On a federation the cluster-level gauges carry the site name,
        # or every site's values would collide in one unlabelled gauge;
        # single-site clusters keep their label sets unchanged.
        site = {} if self.site is None else {"site": self.site}
        registry.gauge("cluster.rings", **site).set(self.config.num_rings)
        registry.gauge("cluster.groups", **site).set(len(self.directory.groups()))
        registry.gauge("cluster.gateway_links", **site).set(len(self.links))
        for (a, b), link in sorted(self.links.items()):
            registry.gauge(
                "cluster.link_forwarded", link="%d-%d" % (a, b), **site
            ).set(link.forwarded())

    # ------------------------------------------------------------------
    # deployment: one API over all rings
    # ------------------------------------------------------------------

    def deploy(self, group_name, interface, servant_factory, ring=None, on_procs=None, degree=None):
        """Deploy a replicated server group, sharded by the placement
        engine unless ``ring`` (and optionally ``on_procs``) pins it."""
        ring, procs = self._resolve_placement(group_name, ring, on_procs, degree)
        handle = self.rings[ring].deploy(group_name, interface, servant_factory, procs)
        self._bind(group_name, ring, procs)
        return ClusterHandle(handle, ring)

    def deploy_client(self, group_name, ring=None, on_procs=None, degree=None):
        """Deploy a replicated client group (a pure invoker)."""
        ring, procs = self._resolve_placement(group_name, ring, on_procs, degree)
        handle = self.rings[ring].deploy_client(group_name, procs)
        self._bind(group_name, ring, procs)
        return ClusterHandle(handle, ring)

    def _resolve_placement(self, group_name, ring, on_procs, degree):
        if on_procs is not None:
            if ring is None:
                rings = {self.config.ring_of_pid(pid) for pid in on_procs}
                if len(rings) != 1:
                    raise ClusterConfigError(
                        "replicas of %r span rings %s: an object group must "
                        "live entirely on one ring" % (group_name, sorted(rings))
                    )
                ring = rings.pop()
            else:
                for pid in on_procs:
                    if self.config.ring_of_pid(pid) != ring:
                        raise ClusterConfigError(
                            "replica pid %d of %r is not on ring %d"
                            % (pid, group_name, ring)
                        )
            placement = self.placement.place(
                group_name, degree=len(list(on_procs)), ring=ring
            )
            # The caller's explicit pids override the hash's choice of
            # processors; the engine still accounts the ring's load.
            return ring, tuple(on_procs)
        placement = self.placement.place(group_name, degree=degree, ring=ring)
        return placement.ring, placement.procs

    def _bind(self, group_name, ring, procs):
        """Record the group and register it as *foreign* everywhere else.

        On every other ring the group's members are that ring's gateway
        pids for the link toward the home ring: re-originated copies
        then flow through the existing voters, which take a majority
        across the gateway replicas.
        """
        self.directory.record(group_name, ring, procs)
        self._register_foreign(group_name, ring)

    def _register_foreign(self, group_name, home_ring, rings=None):
        """Register ``group_name`` on every ring other than its home
        (or on ``rings`` only), with the local gateway pids toward the
        home ring as members."""
        if rings is None:
            rings = range(self.config.num_rings)
        for other in rings:
            if other == home_ring:
                continue
            members = self.gateway_members(home_ring, other)
            for manager in self.rings[other].managers.values():
                manager.register_group(group_name, members)

    def link(self, ring_a, ring_b):
        """The gateway link joining two rings, in either order."""
        return self.links[(min(ring_a, ring_b), max(ring_a, ring_b))]

    def gateway_members(self, home_ring, ring_index):
        """The pids that stand for a group homed on ``home_ring`` on
        another ring: that ring's gateways on the link toward the home."""
        return self.link(home_ring, ring_index).side_pids(ring_index)

    def _add_link(self, ring_a, ring_b):
        pairs = list(
            zip(self.config.gateway_pids(ring_a), self.config.gateway_pids(ring_b))
        )
        self.links[(ring_a, ring_b)] = GatewayLink(self._hop, ring_a, ring_b, pairs)

    def register_remote_group(self, group_name, backbone_members):
        """Adopt a group that really lives on *another site*.

        The federation homes the foreign group on this site's backbone
        (ring 0) with the site's WAN-gateway pids as its members: local
        voters then take a majority across the WAN-gateway copies —
        masking one Byzantine site-gateway replica — and the existing
        cluster gateways route the backbone-homed group's traffic from
        every other local ring exactly as they would any ring-0 group.
        """
        self.directory.record(group_name, 0, backbone_members)
        for manager in self.rings[0].managers.values():
            manager.register_group(group_name, backbone_members)
        self._register_foreign(group_name, 0)

    # ------------------------------------------------------------------
    # invocation: stubs work across rings transparently
    # ------------------------------------------------------------------

    def client_stubs(self, client_handle, interface, server_handle):
        """Stubs for every client replica; the target may be any ring."""
        client = getattr(client_handle, "handle", client_handle)
        server = getattr(server_handle, "handle", server_handle)
        ring = self.directory.home_ring(client.group_name)
        return self.rings[ring].client_stubs(client, interface, server)

    def group(self, group_name):
        ring = self.directory.home_ring(group_name)
        if ring is None:
            raise KeyError(group_name)
        return ClusterHandle(self.rings[ring].group(group_name), ring)

    # ------------------------------------------------------------------
    # elasticity: runtime ring growth and rebalance scheduling
    # ------------------------------------------------------------------

    def add_ring(self):
        """Create a brand-new ring at runtime (an autoscaling split target).

        Builds the ring's full stack — scoped observability, an
        :class:`~repro.core.immune.ImmuneSystem` on the shared
        scheduler/keystore, gateway links to every existing ring — and
        registers every already-bound group as foreign on it so its
        future clients route through the gateways immediately.  Needs a
        configuration that reserves processor-id headroom for growth
        (:class:`repro.elastic.ElasticConfig`).
        """
        grow = getattr(self.config, "grow_ring", None)
        if grow is None:
            raise ClusterConfigError(
                "runtime ring growth needs an elastic configuration "
                "(repro.elastic.ElasticConfig)"
            )
        ring_index = grow()
        ring_obs = (
            RingObservability(
                self.obs,
                ring_index,
                site=self.site,
                shard=self.ring_base + ring_index,
            )
            if self.obs is not None
            else None
        )
        immune = ImmuneSystem(
            self.config.procs_per_ring,
            config=self.config.ring_config(ring_index),
            net_params=self._net_params,
            trace_kinds=self._trace_kinds,
            obs=ring_obs,
            scheduler=self.scheduler,
            proc_ids=self.config.ring_pids(ring_index),
            keystore=self.keystore,
            streams=self.streams.spawn("ring%d" % ring_index),
        )
        self.rings.append(immune)
        self._ring_obs.append(ring_obs)
        self.processors.update(immune.processors)
        for other in range(ring_index):
            self._add_link(other, ring_index)
        # Every group bound so far becomes foreign on the new ring: its
        # members there are the new ring's gateway pids toward the home
        # ring, so voters mask a Byzantine gateway from day one.
        for group_name in self.directory.groups():
            self._register_foreign(
                group_name, self.directory.home_ring(group_name), (ring_index,)
            )
        self.placement.add_ring(ring_index)
        if self._started:
            immune.start()
        return ring_index

    def rebalance_delta(self, new_layout):
        """The migrations separating the recorded layout from ``new_layout``."""
        return self.placement.rebalance_delta(self.placement.layout(), new_layout)

    # ------------------------------------------------------------------
    # gateway fault injection (drills and the bench's Byzantine section)
    # ------------------------------------------------------------------

    def corrupt_gateway(self, ring_a, ring_b, index=0, at_time=None,
                        direction=None):
        """Make one gateway replica of a link Byzantine.

        With ``at_time`` the corruption is armed through the scheduler;
        otherwise it is immediate.  ``direction`` (a ring index) limits
        the corruption to the direction whose *source* is that ring —
        replies flowing the other way stay honest.  Ground truth is
        recorded against the replica's pid on the *destination-facing*
        side of each ring it feeds (only that direction's pid when
        directed), under the ``value_fault`` kind the scorecard
        attributes.
        """
        link = self.link(ring_a, ring_b)
        try:
            relays, culprits = link.corruption(index, direction)
        except ValueError as exc:
            raise ClusterConfigError("direction %s" % exc) from None
        inject_corruption(
            self.scheduler, self.obs, relays, culprits, at_time, "gateway.corrupt"
        )
        return link.replicas[index]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self._started:
            return self
        self._started = True
        for immune in self.rings:
            immune.start()
        return self

    def run(self, until=None, max_events=None):
        if not self._started:
            self.start()
        self.scheduler.run(until=until, max_events=max_events)
        return self

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def surviving_members(self, ring_index):
        return self.rings[ring_index].surviving_members()

    def group_members(self, group_name, ring_index=None):
        """The group's membership as seen on its home ring (or another)."""
        if ring_index is None:
            ring_index = self.directory.home_ring(group_name)
        return self.rings[ring_index].group_members(group_name)

    def gateway_stats(self):
        return {
            "%d-%d" % key: link.stats() for key, link in sorted(self.links.items())
        }

    def __repr__(self):
        return "ClusterManager(%r, %d groups)" % (
            self.config,
            len(self.directory.groups()),
        )
