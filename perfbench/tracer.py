"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer on the
*classes*, before the system under test is built, so bound methods the
program caches at construction time also pass through the wrappers.  No
file of the program changes.  Each wrapped call records a span (layer,
entry point, start, duration, parent span); a layer's self time is the
duration of its calls minus the time covered by wrapped calls nested
inside them.  Spans stay in memory, up to a cap with a drop count, and
are written out when the run ends.

The tracer also remembers the instances of the classes whose counters
the per-layer metrics read (schedulers, networks, processors, delivery
protocols, voters, replication managers), by wrapping their
constructors the same way.
"""

import collections
import importlib
import json
import pstats
import time

#: layer -> [(module, class, (entry points...))]
LAYER_ENTRY_POINTS = {
    "sim": [("repro.sim.scheduler", "Scheduler", ("run",))],
    "multicast": [
        (
            "repro.multicast.delivery",
            "DeliveryProtocol",
            ("on_token", "on_regular", "on_certificate", "queue_message", "start_ring"),
        ),
        ("repro.multicast.membership", "MembershipEngine", ("on_proposal", "on_commit")),
    ],
    "crypto": [
        (
            "repro.crypto.keystore",
            "SigningService",
            ("digest", "sign", "verify", "sign_batch", "verify_batch"),
        )
    ],
    "perf": [("repro.perf", "BytesKeyedCache", ("get", "put"))],
    "orb": [
        (
            "repro.orb.idl",
            "OperationDef",
            ("marshal_args", "unmarshal_args", "marshal_result", "unmarshal_result"),
        ),
        ("repro.orb.giop", "RequestMessage", ("encode", "decode")),
        ("repro.orb.giop", "ReplyMessage", ("encode", "decode")),
        ("repro.orb.idl", "Skeleton", ("dispatch",)),
    ],
    "core": [
        ("repro.core.voting", "Voter", ("add_copy",)),
        ("repro.core.manager", "ReplicationManager", ("outgoing_iiop",)),
    ],
    "obs": [
        ("repro.obs.spans", "SpanTracker", ("begin", "mark")),
        ("repro.obs.forensics", "FlightRecorder", ("record",)),
        ("repro.obs.metrics", "Counter", ("inc",)),
        ("repro.obs.metrics", "Histogram", ("observe",)),
    ],
}

#: classes whose instances the per-layer counters are read from
TRACKED_INSTANCES = (
    ("repro.sim.scheduler", "Scheduler"),
    ("repro.sim.network", "Network"),
    ("repro.sim.process", "Processor"),
    ("repro.multicast.delivery", "DeliveryProtocol"),
    ("repro.core.voting", "Voter"),
    ("repro.core.manager", "ReplicationManager"),
)

#: layers the cProfile cross-check rolls up by package
PROFILE_PACKAGES = (
    "sim", "multicast", "crypto", "perf", "orb", "core", "cluster", "wan", "elastic", "obs",
)

SPAN_CAP = 100_000


class LayerTracer:
    """Installs span wrappers on the layers' classes; removes them on exit."""

    def __init__(self, entry_points=None, tracked=TRACKED_INSTANCES, span_cap=SPAN_CAP):
        self.entry_points = LAYER_ENTRY_POINTS if entry_points is None else entry_points
        self.tracked = tracked
        self.span_cap = span_cap
        #: layer -> self seconds
        self.self_s = collections.defaultdict(float)
        #: "Class.method" -> calls
        self.calls = collections.Counter()
        #: (entry id, start, duration, parent span index or -1)
        self.spans = []
        self.spans_dropped = 0
        #: entry id -> (layer, "Class.method")
        self.entries = []
        #: class name -> instances constructed while installed
        self.instances = collections.defaultdict(list)
        self._stack = []
        self._restore = []

    def reset(self):
        """Forget the calls and spans so far (those of the set-up); the
        installed wrappers and the instances seen stay."""
        self.self_s.clear()
        self.calls.clear()
        self.spans.clear()
        self.spans_dropped = 0

    # installation ----------------------------------------------------------

    def __enter__(self):
        for layer, targets in self.entry_points.items():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    self._install(cls, method, layer)
        for module, cls_name in self.tracked:
            cls = getattr(importlib.import_module(module), cls_name)
            self._track(cls)
        return self

    def __exit__(self, *exc):
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()
        return False

    def _install(self, cls, name, layer):
        raw = cls.__dict__[name]
        entry = len(self.entries)
        key = "%s.%s" % (cls.__name__, name)
        self.entries.append((layer, key))
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span_wrapper(raw.__func__, layer, key, entry))
        else:
            wrapped = self._span_wrapper(raw, layer, key, entry)
        self._restore.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _track(self, cls):
        original = cls.__dict__["__init__"]
        registry = self.instances[cls.__name__]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            registry.append(obj)

        self._restore.append((cls, "__init__", original))
        cls.__init__ = __init__

    def _span_wrapper(self, fn, layer, key, entry):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if len(spans) < cap:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.spans_dropped += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[key] += 1
                if index >= 0:
                    spans[index] = (entry, start, duration, parent)

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # reporting -------------------------------------------------------------

    def write_spans(self, path):
        """Write every kept span as one JSON object per line."""
        with open(path, "w") as fh:
            for entry, start, duration, parent in self.spans:
                layer, key = self.entries[entry]
                fh.write(
                    json.dumps(
                        {"layer": layer, "entry": key, "start": start,
                         "duration": duration, "parent": parent}
                    )
                    + "\n"
                )


def self_times(spans, layer_of):
    """Self time per layer from a list of ``(entry, start, duration, parent)``.

    The reference computation the wrappers' running accumulators must
    agree with: a span's self time is its duration minus the durations
    of its direct children.
    """
    child = collections.defaultdict(float)
    for _entry, _start, duration, parent in spans:
        if parent >= 0:
            child[parent] += duration
    out = collections.defaultdict(float)
    for index, (entry, _start, duration, _parent) in enumerate(spans):
        out[layer_of(entry)] += duration - child[index]
    return dict(out)


def profile_rollup(profile):
    """Own (tottime) seconds per repro package from a :class:`cProfile.Profile`."""
    stats = pstats.Stats(profile)
    out = collections.defaultdict(float)
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        path = filename.replace("\\", "/")
        marker = "/repro/"
        if marker not in path:
            out["other"] += tottime
            continue
        rest = path.split(marker, 1)[1]
        package = rest.split("/", 1)[0]
        if package.endswith(".py"):
            package = package[:-3]
        out[package if package in PROFILE_PACKAGES else "other"] += tottime
    return dict(out)
