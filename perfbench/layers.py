"""Per-layer metrics of one traced repetition.

Counts come from the layers' own counters (``stats`` dicts, processor
CPU accounting, ``repro.perf.cache_stats()``, gateway and migration
records) and from the wrapped entry points' call counts; times come
from the span wrappers of :mod:`tracer`.  Every count and ``sim_*``
value here is a function of simulated state and repeats exactly for a
fixed seed; ``*_self_s``, ``*_per_wall_s`` and ``trace.*`` are host
time.
"""

import repro.perf

#: processor CPU-accounting category prefix -> layer
CPU_LAYERS = {"crypto.": "crypto", "orb.": "orb", "multicast.": "multicast", "rm.": "core"}


def is_host_time(name):
    """Whether a per-layer metric is host time (the rest repeat exactly)."""
    return name.endswith(("self_s", "per_wall_s")) or name.startswith("trace.")


def _ratio(num, den):
    return num / den if den else 0.0


def _gateway_totals(tree):
    """Sum ``forwarded`` and ``suppressed`` over gateway_stats() trees."""
    forwarded = suppressed = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "forwarded" in node:
                forwarded += node["forwarded"]
                suppressed += node.get("suppressed", 0)
            else:
                stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return forwarded, suppressed


def _gateways(system):
    """(cluster gateway stats trees, WAN site-gateway stats trees)."""
    sites = getattr(system, "sites", None)
    if sites is not None:
        return [c.gateway_stats() for c in sites.values()], [system.gateway_stats()]
    if hasattr(system, "links"):
        return [system.gateway_stats()], []
    return [], []


def layer_metrics(tracer, rep, untraced_loop_s):
    """``{name: (value, unit)}`` for every per-layer metric."""
    workload = rep.workload
    inst = tracer.instances
    calls = tracer.calls
    self_s = tracer.self_s
    completed = rep.attempted - rep.failed

    cpu = {layer: 0.0 for layer in CPU_LAYERS.values()}
    for processor in inst["Processor"]:
        for category, seconds in processor.cpu_accounting.items():
            for prefix, layer in CPU_LAYERS.items():
                if category.startswith(prefix):
                    cpu[layer] += seconds

    def total(cls_name, key):
        return sum(obj.stats.get(key, 0) for obj in inst[cls_name])

    cache = repro.perf.cache_stats().values()
    hits = sum(c["hits"] for c in cache)
    misses = sum(c["misses"] for c in cache)

    events = sum(s.events_executed for s in inst["Scheduler"])
    visits = total("DeliveryProtocol", "token_visits")
    copies = total("Voter", "copies")
    decisions = total("Voter", "decisions")

    cluster_trees, wan_trees = _gateways(workload.system)
    c_fwd, c_sup = _gateway_totals(cluster_trees)
    w_fwd, w_sup = _gateway_totals(wan_trees)

    coordinator = getattr(workload.system, "coordinator", None)
    migrations = coordinator.completed if coordinator is not None else []

    traced_loop_s = rep.loop_s
    attributed = sum(self_s.values())
    return {
        "crypto.signs": (calls["SigningService.sign"] + calls["SigningService.sign_batch"], "count"),
        "crypto.verifies": (calls["SigningService.verify"], "count"),
        "crypto.digests": (calls["SigningService.digest"], "count"),
        "crypto.sim_cpu_s": (cpu["crypto"], "s"),
        "crypto.self_s": (self_s["crypto"], "s"),
        "perf.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "perf.cache_entries": (sum(c["size"] for c in cache), "count"),
        "perf.get_self_s": (self_s["perf"], "s"),
        "orb.marshals": (
            sum(n for k, n in calls.items() if k.startswith("OperationDef.")), "count"
        ),
        "orb.giop_codec_calls": (
            sum(n for k, n in calls.items() if k.startswith(("RequestMessage.", "ReplyMessage."))),
            "count",
        ),
        "orb.dispatches": (calls["Skeleton.dispatch"], "count"),
        "orb.sim_cpu_s": (cpu["orb"], "s"),
        "orb.self_s": (self_s["orb"], "s"),
        "sim.events": (events, "count"),
        "sim.events_per_wall_s": (_ratio(events, untraced_loop_s), "1/s"),
        "sim.frames_sent": (sum(n.stats["sent"] for n in inst["Network"]), "count"),
        "sim.bytes_sent": (sum(n.stats["bytes_sent"] for n in inst["Network"]), "B"),
        "sim.frames_dropped": (sum(n.stats["dropped"] for n in inst["Network"]), "count"),
        "sim.self_s": (self_s["sim"], "s"),
        "multicast.token_visits": (visits, "count"),
        "multicast.visits_per_inv": (_ratio(visits, completed), "ratio"),
        "multicast.msgs_per_visit": (_ratio(total("DeliveryProtocol", "sent"), visits), "ratio"),
        "multicast.retransmits": (total("DeliveryProtocol", "retransmits"), "count"),
        "multicast.certs_signed": (total("DeliveryProtocol", "certs_signed"), "count"),
        "multicast.installs": (calls["DeliveryProtocol.start_ring"], "count"),
        "multicast.sim_outage_ms": (rep.sim["sim_outage_ms"], "ms"),
        "multicast.sim_detect_ms": (rep.sim["sim_detect_ms"], "ms"),
        "multicast.sim_cpu_s": (cpu["multicast"], "s"),
        "multicast.self_s": (self_s["multicast"], "s"),
        "core.vote_copies": (copies, "count"),
        "core.vote_decisions": (decisions, "count"),
        "core.copies_per_decision": (_ratio(copies, decisions), "ratio"),
        "core.duplicates_suppressed": (total("ReplicationManager", "duplicates_suppressed"), "count"),
        "core.value_fault_votes": (total("ReplicationManager", "value_fault_votes_sent"), "count"),
        "core.sim_cpu_s": (cpu["core"], "s"),
        "core.self_s": (self_s["core"], "s"),
        "cluster.gw_forwarded": (c_fwd, "count"),
        "cluster.gw_suppressed": (c_sup, "count"),
        "cluster.gw_useful_ratio": (_ratio(c_fwd, c_fwd + c_sup), "ratio"),
        "wan.gw_forwarded": (w_fwd, "count"),
        "wan.gw_suppressed": (w_sup, "count"),
        "wan.gw_useful_ratio": (_ratio(w_fwd, w_fwd + w_sup), "ratio"),
        "elastic.migrations": (len(migrations), "count"),
        "elastic.held_invocations": (sum(r["held"] for r in migrations), "count"),
        "elastic.hold_ms_max": (max((r["hold_seconds"] for r in migrations), default=0.0) * 1e3, "ms"),
        "obs.records": (
            sum(
                n for k, n in calls.items()
                if k.startswith(("SpanTracker.", "FlightRecorder.", "Counter.", "Histogram."))
            ),
            "count",
        ),
        "obs.self_s": (self_s["obs"], "s"),
        "trace.overhead_ratio": (_ratio(traced_loop_s, untraced_loop_s), "ratio"),
        "trace.unattributed_s": (traced_loop_s - attributed, "s"),
    }
