"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-case4 --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload (same seed, so the same inputs)
until ``--seconds`` host seconds have passed (at least once),
and reports the
end-to-end metrics: host metrics as medians over the repetitions,
simulated metrics from the repetitions, which must agree exactly.
``--trace 1`` runs the workload three times -- untraced, with the
per-layer span wrappers installed, and under cProfile -- and reports
the per-layer metrics; spans and the profile rollup are written under
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.
"""

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

#: repetitions per run at least, and set-ups timed per run at least
#: (medians are reported)
MIN_REPS = 1
MIN_SETUPS = 9


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


class Rep:
    """One repetition of a workload: host timings and simulated results."""

    def __init__(self, workload, setup_s, loop_s, attempted, failed, sim):
        self.workload = workload
        self.setup_s = setup_s
        self.loop_s = loop_s
        self.attempted = attempted
        self.failed = failed
        #: simulated metrics, derived from simulated state only
        self.sim = sim
        self.problems = list(workload.problems)

    @property
    def host_inv_per_s(self):
        return (self.attempted - self.failed) / self.loop_s


def simulated_metrics(workload, raw):
    """The workload's simulated metrics from its :meth:`finish` results."""
    import stats

    reference = raw["reference"]
    latencies = [latency for _due, latency in reference]
    rung = stats.highest_percentile(len(latencies))
    workload.check(
        rung is not None and rung >= 99.0,
        "p99 needs %d samples beyond it; %d samples allow only p%s"
        % (stats.MIN_BEYOND, len(latencies), rung),
    )
    out = {
        "samples": len(latencies),
        "highest_percentile": rung,
        "sim_p50_ms": stats.percentile(latencies, 50.0) * 1e3,
        "sim_p99_ms": stats.percentile(latencies, 99.0) * 1e3,
        "sim_capacity_inv_s": raw["capacity"],
        # fault intervals: 0.0 where the workload injects no fault
        "sim_outage_ms": (raw.get("outage") or 0.0) * 1e3,
        "sim_detect_ms": (raw.get("detect") or 0.0) * 1e3,
    }
    # a rate below capacity: the latency trend across the phase stays
    # below the median latency (a growing backlog would exceed it)
    trend = stats.latency_trend(reference)
    span = max(due for due, _ in reference) - min(due for due, _ in reference)
    out["reference_trend"] = trend
    workload.check(
        trend * span <= out["sim_p50_ms"] / 1e3,
        "reference backlog grows: latency rises %.4f s per s of the phase" % trend,
    )
    return out


def run_rep(cls, seed, around_loop=None):
    """Build, run and judge one repetition.  ``around_loop(run)`` may wrap
    the timed loop (the cProfile cross-check does)."""
    import repro.perf

    gc.collect()
    repro.perf.clear_caches()
    workload = cls(seed)
    start = time.perf_counter()
    workload.build()
    built = time.perf_counter()
    if around_loop is None:
        workload.run()
    else:
        around_loop(workload.run)
    done = time.perf_counter()
    attempted, failed, raw = workload.finish()
    sim = simulated_metrics(workload, raw)
    sim["inputs_sha256"] = workload.inputs_digest()
    return Rep(workload, built - start, done - built, attempted, failed, sim)


def time_setup(cls, seed):
    """Seconds to build one more instance of the workload (not run)."""
    import repro.perf

    gc.collect()
    repro.perf.clear_caches()
    workload = cls(seed)
    start = time.perf_counter()
    workload.build()
    return time.perf_counter() - start


def untraced(cls, seed, seconds):
    """Repeat the workload for ``seconds``; end-to-end metrics."""
    import stats

    reps = []
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < seconds:
        rep = run_rep(cls, seed)
        rep.workload = None  # release the simulated system before the next
        reps.append(rep)
    setups = [rep.setup_s for rep in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(cls, seed))
    problems = [p for rep in reps for p in rep.problems]
    first = reps[0]
    for rep in reps[1:]:
        if rep.sim != first.sim or (rep.attempted, rep.failed) != (first.attempted, first.failed):
            problems.append("repetitions with one seed disagree on simulated results")
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "host_inv_per_s": (stats.median([r.host_inv_per_s for r in reps]), "1/s"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_p50_ms": (first.sim["sim_p50_ms"], "ms"),
        "sim_p99_ms": (first.sim["sim_p99_ms"], "ms"),
        "sim_capacity_inv_s": (first.sim["sim_capacity_inv_s"], "1/s"),
    }
    notes = [
        "repetitions %d, set-ups %d, loop seconds %s"
        % (len(reps), len(setups), " ".join("%.3f" % r.loop_s for r in reps)),
        "reference samples %d (p99 allowed: highest percentile with >= 10 beyond it is p%s)"
        % (first.sim["samples"], first.sim["highest_percentile"]),
        "failed_frac %.6f (%d of %d)" % (first.failed / first.attempted, first.failed, first.attempted),
        "inputs sha256 %s" % first.sim["inputs_sha256"],
    ]
    return first.attempted, first.failed, problems, metrics, notes


def traced(cls, seed, out_dir):
    """Untraced, traced and profiled repetitions; per-layer metrics."""
    import layers
    import tracer

    plain = run_rep(cls, seed)
    plain.workload = None
    with tracer.LayerTracer() as spans:

        def loop_only(run):
            spans.reset()
            run()

        rep = run_rep(cls, seed, around_loop=loop_only)
    profile = cProfile.Profile()
    profiled = run_rep(cls, seed, around_loop=profile.runcall)
    profiled.workload = None
    problems = plain.problems + rep.problems + profiled.problems
    if not rep.sim == plain.sim == profiled.sim:
        problems.append("tracing or profiling changed the simulated results")
    metrics = layers.layer_metrics(spans, rep, plain.loop_s)
    rollup = tracer.profile_rollup(profile)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (cls.name, seed))
    spans.write_spans(stem + "-spans.jsonl")
    with open(stem + "-layers.json", "w") as fh:
        json.dump(
            {
                "workload": cls.name,
                "seed": seed,
                "metrics": {k: v for k, (v, _unit) in metrics.items()},
                "simulated": rep.sim,
                "calls": dict(spans.calls),
                "spans_kept": len(spans.spans),
                "spans_dropped": spans.spans_dropped,
                "cprofile_tottime_by_package": rollup,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    total = sum(rollup.values()) or 1.0
    notes = [
        "loop seconds untraced %.3f traced %.3f; spans kept %d dropped %d -> %s"
        % (plain.loop_s, rep.loop_s, len(spans.spans), spans.spans_dropped, stem + "-spans.jsonl"),
        "cProfile cross-check (tottime share): "
        + " ".join(
            "%s=%.1f%%" % (k, 100.0 * v / total)
            for k, v in sorted(rollup.items(), key=lambda kv: -kv[1])
        ),
    ]
    return rep.attempted, rep.failed, problems, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        return _fail("program source not found at %s" % SOURCE)
    sys.path.insert(0, SOURCE)
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        return _fail(
            "unknown workload %r (choose from %s)"
            % (args.workload, ", ".join(sorted(workloads.WORKLOADS)))
        )
    if args.trace:
        result = traced(cls, args.seed, os.path.join(HERE, "out"))
    else:
        result = untraced(cls, args.seed, args.seconds)
    attempted, failed, problems, metrics, notes = result

    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-28s %16.6f %s" % (name, value, unit))
    for problem in problems:
        print("  PROBLEM: %s" % problem)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
