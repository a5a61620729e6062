"""The federation facade: several sites' clusters behind one API.

A :class:`WanManager` owns one :class:`~repro.cluster.manager.
ClusterManager` per site — all driven by a single shared discrete-event
scheduler (one timeline across the whole federation), numbered from
disjoint global processor-id ranges, sharing one key directory and one
observability bundle — plus a :class:`~repro.cluster.gateway.
GatewayLink` per site pair whose :class:`~repro.cluster.gateway.WanHop`
carries the voted inter-site traffic over the :class:`~repro.sim.
network.WanTopology`.  Workloads use it
exactly like a single cluster::

    wan = WanManager(WanConfig(sites=("alpha", "beta")))
    server = wan.deploy("ledger", LEDGER_IDL, factory, site="alpha")
    client = wan.deploy_client("driver", site="beta")
    wan.start()
    for pid, stub in wan.client_stubs(client, LEDGER_IDL, server):
        stub.add(1)
    wan.run(until=5.0)

Whether ``driver`` and ``ledger`` share a site is invisible to the
caller: a remote group is registered at every other site as homed on
that site's backbone with the site's WAN-gateway pids as members, so
local voters mask one Byzantine site-gateway replica, local cluster
gateways route other rings' traffic toward the backbone unchanged, and
the site-gateway links carry the voted winners across the WAN with
exactly-once semantics.
"""

import random

from repro.cluster.gateway import GatewayLink, WanHop, inject_corruption
from repro.cluster.manager import ClusterManager
from repro.cluster.placement import rendezvous_ranking
from repro.crypto.keystore import KeyStore
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Scheduler
from repro.wan.config import WanConfig, WanConfigError


class WanDirectory:
    """Where every object group lives: group -> (site, ring, replicas)."""

    def __init__(self):
        self._entries = {}

    def record(self, group_name, site, ring, procs):
        if group_name in self._entries:
            raise WanConfigError("group %r already bound" % group_name)
        self._entries[group_name] = (site, ring, tuple(procs))

    def home_site(self, group_name):
        entry = self._entries.get(group_name)
        return None if entry is None else entry[0]

    def home_ring(self, group_name):
        entry = self._entries.get(group_name)
        return None if entry is None else entry[1]

    def procs(self, group_name):
        entry = self._entries.get(group_name)
        return () if entry is None else entry[2]

    def groups(self):
        return sorted(self._entries)

    def to_dict(self):
        return {
            name: {"site": site, "ring": ring, "procs": list(procs)}
            for name, (site, ring, procs) in sorted(self._entries.items())
        }


class WanHandle:
    """A deployed group plus its home site — quacks like a GroupHandle."""

    def __init__(self, handle, site):
        #: the underlying :class:`~repro.cluster.manager.ClusterHandle`
        self.handle = handle
        self.site = site

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

    @property
    def ring(self):
        return self.handle.ring

    def __repr__(self):
        return "WanHandle(%s at site %s, ring %d, procs %s)" % (
            self.group_name,
            self.site,
            self.ring,
            list(self.replica_procs),
        )


class WanManager:
    """A multi-site Immune federation on one shared simulation."""

    def __init__(
        self,
        config=None,
        obs=None,
        net_params=None,
        fault_plan=None,
        trace_kinds=frozenset(),
    ):
        """``fault_plan`` supplies the WAN-level partition windows (and
        any scheduled crashes the caller arms); intra-site LAN fault
        plans belong to the sites' own workload drivers."""
        self.config = config or WanConfig()
        self.scheduler = Scheduler()
        self.obs = obs
        self.fault_plan = fault_plan
        self.topology = self.config.topology(fault_plan)
        self.streams = RngStreams(self.config.seed)
        #: the federation-level loss draw stream (partitions draw nothing)
        self.wan_rng = self.streams.spawn("wan").stream("loss")
        self.directory = WanDirectory()
        site0 = self.config.cluster_config(0)
        if self.config.case.replicated:
            self.keystore = KeyStore(
                random.Random(self.config.seed),
                modulus_bits=self.config.modulus_bits,
                digest_fn=site0.ring_config(0).digest_fn(),
            )
        else:
            self.keystore = None

        #: site name -> ClusterManager, in configuration order
        self.sites = {}
        self._site_order = self.config.site_names()
        for index, spec in enumerate(self.config.sites):
            cluster_config = self.config.cluster_config(index)
            self.sites[spec.name] = ClusterManager(
                cluster_config,
                obs=obs,
                net_params=net_params,
                trace_kinds=trace_kinds,
                scheduler=self.scheduler,
                keystore=self.keystore,
                streams=self.streams.spawn("site:%s" % spec.name),
                ring_base=self.config.ring_base(index),
            )

        #: (site a, site b) in config order -> GatewayLink over the WAN
        self.links = {}
        hop = WanHop(self)
        for i, a in enumerate(self._site_order):
            for b in self._site_order[i + 1:]:
                pairs = list(
                    zip(
                        self.sites[a].config.wan_gateway_pids(),
                        self.sites[b].config.wan_gateway_pids(),
                    )
                )
                self.links[(a, b)] = GatewayLink(hop, a, b, pairs)

        self._started = False
        if obs is not None:
            obs.registry.add_collector(self._collect_wan_metrics)

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def _collect_wan_metrics(self, registry):
        registry.gauge("wan.sites").set(len(self.sites))
        registry.gauge("wan.links").set(len(self.links))
        registry.gauge("wan.groups").set(len(self.directory.groups()))
        for (a, b), link in sorted(self.links.items()):
            registry.gauge("wan.link_forwarded", link="%s-%s" % (a, b)).set(
                link.forwarded()
            )

    def site_of_shard(self):
        """Global shard index -> site name, for per-site attribution."""
        mapping = {}
        for name, cluster in self.sites.items():
            for ring in range(cluster.config.num_rings):
                mapping[cluster.ring_base + ring] = name
        return mapping

    def shard_of_group(self):
        """Group name -> global shard of its *true* home ring."""
        mapping = {}
        for name in self.directory.groups():
            site = self.directory.home_site(name)
            ring = self.directory.home_ring(name)
            mapping[name] = self.sites[site].ring_base + ring
        return mapping

    # ------------------------------------------------------------------
    # deployment: one API over all sites
    # ------------------------------------------------------------------

    def deploy(
        self,
        group_name,
        interface,
        servant_factory,
        site=None,
        ring=None,
        on_procs=None,
        degree=None,
    ):
        """Deploy a replicated server group on one site (rendezvous-
        chosen unless pinned) and advertise it to every other site."""
        site = self._resolve_site(group_name, site)
        handle = self.sites[site].deploy(
            group_name, interface, servant_factory,
            ring=ring, on_procs=on_procs, degree=degree,
        )
        self._bind(group_name, site, handle)
        return WanHandle(handle, site)

    def deploy_client(self, group_name, site=None, ring=None, on_procs=None, degree=None):
        """Deploy a replicated client group (a pure invoker) on one site."""
        site = self._resolve_site(group_name, site)
        handle = self.sites[site].deploy_client(
            group_name, ring=ring, on_procs=on_procs, degree=degree
        )
        self._bind(group_name, site, handle)
        return WanHandle(handle, site)

    def _resolve_site(self, group_name, site):
        if site is None:
            # Deterministic site choice, same rendezvous hash as rings.
            return rendezvous_ranking(group_name, list(self._site_order))[0]
        if site not in self.sites:
            raise WanConfigError(
                "unknown site %r (federation has %s)"
                % (site, list(self._site_order))
            )
        return site

    def _bind(self, group_name, site, handle):
        """Record the group and advertise it at every *other* site,
        homed on that site's backbone with the site's own WAN-gateway
        pids as members: local voters there take a majority across the
        site-gateway copies."""
        self.directory.record(group_name, site, handle.ring, handle.replica_procs)
        for other, cluster in self.sites.items():
            if other == site:
                continue
            cluster.register_remote_group(
                group_name, cluster.config.wan_gateway_pids()
            )

    # ------------------------------------------------------------------
    # invocation: stubs work across sites transparently
    # ------------------------------------------------------------------

    def client_stubs(self, client_handle, interface, server_handle):
        """Stubs for every client replica; the target may be any site."""
        client = getattr(client_handle, "handle", client_handle)
        site = self.directory.home_site(
            getattr(client, "group_name", client_handle.group_name)
        )
        return self.sites[site].client_stubs(client, interface, server_handle)

    def group(self, group_name):
        site = self.directory.home_site(group_name)
        if site is None:
            raise KeyError(group_name)
        return WanHandle(self.sites[site].group(group_name), site)

    # ------------------------------------------------------------------
    # fault injection (drills and the bench's Byzantine sections)
    # ------------------------------------------------------------------

    def _link(self, site_a, site_b):
        key = (site_a, site_b) if (site_a, site_b) in self.links else (site_b, site_a)
        link = self.links.get(key)
        if link is None:
            raise WanConfigError(
                "no site-gateway link between %r and %r" % (site_a, site_b)
            )
        return link

    def corrupt_site_gateway(self, site_a, site_b, index=0, at_time=None, direction=None):
        """Make one site-gateway replica of a link Byzantine.

        With ``direction`` (a site name) only the relay carrying
        traffic *out of* that site corrupts, and ``value_fault`` ground
        truth is recorded against the replica's pid at the receiving
        site — the side where its forged copies are voted down and
        attributed.  Attribution leads to conviction and membership
        exclusion there, which silences the replica's reverse path too,
        so a both-directions corruption (``direction=None``, recorded
        against both pids) can only ever be attributed on the side that
        voted first; drills that gate on recall should pick a direction.
        """
        link = self._link(site_a, site_b)
        try:
            relays, culprits = link.corruption(index, direction)
        except ValueError as exc:
            raise WanConfigError("direction %s" % exc) from None
        inject_corruption(
            self.scheduler, self.obs, relays, culprits, at_time, "wan.corrupt"
        )
        return link.replicas[index]

    def compromise_site(self, site, at_time=None):
        """Turn a *whole site* Byzantine: every relay carrying data
        out of ``site`` corrupts what it sends, each replica differently.

        Because the compromised copies disagree with each other, no
        receiving voter ever assembles a majority — the compromise
        degrades to omission (fail-safe), conservation invariants hold,
        and honest sites keep serving.  Ground truth is recorded under
        the non-detectable ``site_compromise`` kind: with no delivered
        wrong value and no completed vote there is nothing for the
        divergence detector to attribute, so the scorecard reports the
        injection as suppressed rather than missed.
        """
        if site not in self.sites:
            raise WanConfigError(
                "unknown site %r (federation has %s)"
                % (site, list(self._site_order))
            )
        relays = []
        for (a, b), link in sorted(self.links.items()):
            if site in (a, b):
                relays.extend(link.relays_from(site))
        inject_corruption(
            self.scheduler,
            self.obs,
            relays,
            self.sites[site].config.wan_gateway_pids(),
            at_time,
            "wan.compromise",
            kind="site_compromise",
        )
        return relays

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self._started:
            return self
        self._started = True
        for name in self._site_order:
            self.sites[name].start()
        return self

    def run(self, until=None, max_events=None):
        if not self._started:
            self.start()
        self.scheduler.run(until=until, max_events=max_events)
        return self

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def gateway_stats(self):
        return {
            "%s-%s" % key: link.stats() for key, link in sorted(self.links.items())
        }

    def __repr__(self):
        return "WanManager(%r, %d groups)" % (
            self.config,
            len(self.directory.groups()),
        )
