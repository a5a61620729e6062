"""Hot-path performance regression gate.

Measures the wall-clock cost of the Figure-7 full-survivability case
(the paper's case 4: signed tokens, digests, majority voting — the most
CPU-hungry configuration) in two modes on the same host:

* **baseline** — the pre-optimisation implementations, kept runnable
  behind :mod:`repro.perf` (generic string-tag CDR dispatch, the
  table-driven reference MD4 block function, plain ``pow(m, d, n)``
  RSA signing, every memo cache off);
* **optimized** — precompiled CDR codecs, OpenSSL's MD4 (the reference
  block function where OpenSSL MD4 is unavailable), RSA signing
  by CRT with OpenSSL's half-width exponentiations (Python's ``pow``
  where OpenSSL is unavailable), shared fan-out decode, and
  digest/RSA-verify memoisation.

Because both implementations run in the same process on the same
machine, the measured ratio is a portable regression gate: it asserts
the *relative* speedup, never an absolute time that would depend on the
host.  The gate requires ``--min-speedup`` (default 2.0) on the full
run; ``--smoke`` runs a abbreviated workload that checks the machinery
and the invariants but, being noise-dominated, only reports the ratio.

Two correctness invariants are asserted on every run:

* **simulated equality** — throughput, message counts, and the per-
  category simulated CPU bill are exactly equal in both modes (the
  caches are wall-clock only; no simulated timestamp may move);
* **determinism** — a seeded run's observability JSONL export is
  byte-identical with caches on and off.

Results are written to ``BENCH_pr2.json``::

    python -m repro.bench.perf             # full gate, writes BENCH_pr2.json
    python -m repro.bench.perf --smoke     # CI-sized workload

A second, *simulated* gate covers the batch-signature token pipeline
(:mod:`repro.multicast.delivery` with ``batch_signatures=True``): the
same Figure-7 workload is run with per-visit token signatures and with
batch certificates, and the simulated invocations/second ratio must
reach ``--min-batch-ratio`` (default 3.0).  Because both numbers are
simulated, the gate is deterministic — it is enforced even under
``--smoke`` — and its report ``BENCH_pr7.json`` contains only simulated
quantities, so repeated runs and both perf modes must produce
byte-identical files::

    python -m repro.bench.perf --batch-only            # writes BENCH_pr7.json
    python -m repro.bench.perf --batch-only --smoke    # CI-sized workload
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro import perf
from repro.bench.harness import run_packet_driver_case
from repro.core.config import ImmuneConfig, SurvivabilityCase
from repro.crypto import md4, rsa
from repro.obs import Observability
from repro.obs.export import export_jsonl

#: the measured Figure-7 point: case 4 at a mid-range offered load
CASE = SurvivabilityCase.FULL_SURVIVABILITY
INTERVAL_US = 300
SEED = 7

FULL = {"duration": 0.4, "warmup": 0.15, "reps": 3}
SMOKE = {"duration": 0.08, "warmup": 0.04, "reps": 1}

#: the shorter seeded run used for the byte-identical export check
DETERMINISM = {"duration": 0.08, "warmup": 0.04}


def _run_case(duration, warmup, obs=None):
    return run_packet_driver_case(
        CASE,
        INTERVAL_US * 1e-6,
        duration=duration,
        warmup=warmup,
        seed=SEED,
        obs=obs,
    )


def _sim_fingerprint(result):
    """Everything simulated the workload produces, for cross-mode equality."""
    return {
        "throughput": result.throughput,
        "offered": result.offered,
        "sent": result.sent,
        "received": result.received,
        "cpu_seconds_by_category": {k: result.cpu[k] for k in sorted(result.cpu)},
    }


def _timed_runs(duration, warmup, reps):
    """Best-of-``reps`` hot-loop wall time for both modes.

    The measured region is the simulation loop itself (the harness's
    ``run_wall_seconds``): system construction and RSA key generation
    are identical setup work in both modes and are excluded, exactly as
    a steady-state throughput measurement would exclude process start.

    Each rep runs baseline then optimized back to back, after one
    short untimed run per mode, so CPython's adaptive-specialisation
    warm-up does not bias whichever mode happens to run first.
    Returns ``({False: seconds, True: seconds}, {False: result, ...})``.
    """
    best = {False: None, True: None}
    results = {}
    for optimized in (False, True):
        with perf.mode(optimized):
            _run_case(duration=0.02, warmup=0.01)
    for _ in range(reps):
        for optimized in (False, True):
            with perf.mode(optimized):  # entering clears every cache: cold start
                result = _run_case(duration, warmup)
            results[optimized] = result
            elapsed = result.run_wall_seconds
            if best[optimized] is None or elapsed < best[optimized]:
                best[optimized] = elapsed
    return best, results


def _cache_stats_snapshot(optimized, duration, warmup):
    """Re-run one rep in ``optimized`` mode and capture the memo stats."""
    with perf.mode(optimized):
        _run_case(duration, warmup)
        return perf.cache_stats()


def _determinism_check():
    """Export a seeded run's obs JSONL in both modes; compare the bytes."""
    blobs = {}
    for label, optimized in (("baseline", False), ("optimized", True)):
        with perf.mode(optimized):
            obs = Observability()
            result = _run_case(obs=obs, **DETERMINISM)
            fd, path = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                export_jsonl(
                    path,
                    obs,
                    run_info={
                        "bench": "pr2-determinism",
                        "case": CASE.name,
                        "interval_us": INTERVAL_US,
                        "seed": SEED,
                    },
                )
                with open(path, "rb") as fh:
                    blobs[label] = fh.read()
            finally:
                os.unlink(path)
            blobs[label + "_sim"] = _sim_fingerprint(result)
    identical = blobs["baseline"] == blobs["optimized"]
    return {
        "jsonl_identical": identical,
        "jsonl_lines": blobs["optimized"].count(b"\n"),
        "jsonl_bytes": len(blobs["optimized"]),
        "sim_equal": blobs["baseline_sim"] == blobs["optimized_sim"],
    }


def run_gate(smoke=False, min_speedup=2.0, output="BENCH_pr2.json"):
    """Run the full gate; returns (report dict, exit status)."""
    params = SMOKE if smoke else FULL
    duration, warmup, reps = params["duration"], params["warmup"], params["reps"]

    print(
        "perf gate: %s @ %dus, duration=%.2fs x%d reps%s"
        % (CASE.name, INTERVAL_US, duration, reps, " (smoke)" if smoke else "")
    )
    best, results = _timed_runs(duration, warmup, reps)
    baseline_s, baseline_result = best[False], results[False]
    optimized_s, optimized_result = best[True], results[True]
    print("  baseline  (pre-PR equivalent): %.3f s" % baseline_s)
    print("  optimized (this tree):         %.3f s" % optimized_s)
    speedup = baseline_s / optimized_s if optimized_s else float("inf")
    print(
        "  speedup: %.2fx (MD4 backend: %s, RSA sign backend: %s)"
        % (speedup, md4.backend(), rsa.backend())
    )

    sim_baseline = _sim_fingerprint(baseline_result)
    sim_optimized = _sim_fingerprint(optimized_result)
    sim_equal = sim_baseline == sim_optimized
    print("  simulated results equal across modes: %s" % sim_equal)

    cache_stats = _cache_stats_snapshot(True, duration, warmup)
    determinism = _determinism_check()
    print(
        "  obs export byte-identical caches on/off: %s (%d lines)"
        % (determinism["jsonl_identical"], determinism["jsonl_lines"])
    )

    speedup_gated = not smoke
    speedup_ok = (not speedup_gated) or speedup >= min_speedup
    ok = sim_equal and determinism["jsonl_identical"] and determinism["sim_equal"] and speedup_ok

    report = {
        "bench": "pr2-hot-path-overhaul",
        "workload": {
            "case": CASE.name,
            "interval_us": INTERVAL_US,
            "duration": duration,
            "warmup": warmup,
            "reps": reps,
            "seed": SEED,
            "smoke": smoke,
        },
        "baseline": {"wall_seconds": baseline_s, "sim": sim_baseline},
        "optimized": {
            "wall_seconds": optimized_s,
            "sim": sim_optimized,
            "cache_stats": cache_stats,
        },
        "speedup": speedup,
        "min_speedup": min_speedup if speedup_gated else None,
        "speedup_ok": speedup_ok,
        "simulated_results_equal": sim_equal,
        "determinism": determinism,
        "ok": ok,
    }
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("  wrote %s" % output)

    if not sim_equal:
        print("FAIL: simulated results differ between modes", file=sys.stderr)
    if not determinism["jsonl_identical"] or not determinism["sim_equal"]:
        print("FAIL: caches are visible in the deterministic export", file=sys.stderr)
    if not speedup_ok:
        print(
            "FAIL: speedup %.2fx below the %.1fx gate" % (speedup, min_speedup),
            file=sys.stderr,
        )
    if ok:
        print("PASS")
    return report, 0 if ok else 1


BATCH_FULL = {"duration": 0.4, "warmup": 0.15}
BATCH_SMOKE = {"duration": 0.12, "warmup": 0.05}


def _run_batch_case(batch, duration, warmup):
    config = ImmuneConfig(case=CASE, seed=SEED, batch_signatures=batch)
    result = run_packet_driver_case(
        CASE,
        INTERVAL_US * 1e-6,
        duration=duration,
        warmup=warmup,
        seed=SEED,
        config=config,
    )
    return _sim_fingerprint(result)


def run_batch_gate(smoke=False, min_ratio=3.0, output="BENCH_pr7.json"):
    """Gate the batch-signature pipeline's simulated throughput win.

    Runs the Figure-7 full-survivability workload with per-visit token
    signatures and with batch certificates, and requires the simulated
    invocations/second ratio to reach ``min_ratio``.  Everything in the
    report is simulated, so it must be byte-identical across repeated
    runs and across perf modes — both are checked here.
    """
    params = BATCH_SMOKE if smoke else BATCH_FULL
    duration, warmup = params["duration"], params["warmup"]
    print(
        "batch gate: %s @ %dus, duration=%.2fs%s"
        % (CASE.name, INTERVAL_US, duration, " (smoke)" if smoke else "")
    )

    per_visit = _run_batch_case(False, duration, warmup)
    batched = _run_batch_case(True, duration, warmup)
    ratio = (
        batched["throughput"] / per_visit["throughput"]
        if per_visit["throughput"]
        else float("inf")
    )
    print("  per-visit signatures: %8.1f inv/s" % per_visit["throughput"])
    print("  batch certificates:   %8.1f inv/s" % batched["throughput"])
    print("  ratio: %.2fx (gate: %.1fx)" % (ratio, min_ratio))

    # Determinism: an immediate re-run, and a run in the opposite perf
    # mode, must reproduce the simulated fingerprint exactly.
    rerun_equal = _run_batch_case(True, duration, warmup) == batched
    with perf.mode(not perf.optimized_enabled()):
        cross_mode_equal = _run_batch_case(True, duration, warmup) == batched
    print("  rerun deterministic: %s" % rerun_equal)
    print("  identical across perf modes: %s" % cross_mode_equal)

    ratio_ok = ratio >= min_ratio
    ok = ratio_ok and rerun_equal and cross_mode_equal
    report = {
        "bench": "pr7-batch-signature-pipeline",
        "workload": {
            "case": CASE.name,
            "interval_us": INTERVAL_US,
            "duration": duration,
            "warmup": warmup,
            "seed": SEED,
            "smoke": smoke,
        },
        "per_visit_signatures": per_visit,
        "batch_certificates": batched,
        "throughput_ratio": ratio,
        "min_ratio": min_ratio,
        "ratio_ok": ratio_ok,
        "rerun_deterministic": rerun_equal,
        "identical_across_perf_modes": cross_mode_equal,
        "ok": ok,
    }
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("  wrote %s" % output)

    if not ratio_ok:
        print(
            "FAIL: batch ratio %.2fx below the %.1fx gate" % (ratio, min_ratio),
            file=sys.stderr,
        )
    if not rerun_equal or not cross_mode_equal:
        print("FAIL: batch gate results are not deterministic", file=sys.stderr)
    if ok:
        print("PASS")
    return report, 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="abbreviated CI workload: invariants gate, speedup only reported",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--output", default="BENCH_pr2.json")
    parser.add_argument(
        "--batch-only",
        action="store_true",
        help="run only the batch-signature throughput gate",
    )
    parser.add_argument("--min-batch-ratio", type=float, default=3.0)
    parser.add_argument("--batch-output", default="BENCH_pr7.json")
    args = parser.parse_args(argv)
    status = 0
    if not args.batch_only:
        _, status = run_gate(
            smoke=args.smoke, min_speedup=args.min_speedup, output=args.output
        )
    _, batch_status = run_batch_gate(
        smoke=args.smoke, min_ratio=args.min_batch_ratio, output=args.batch_output
    )
    return status or batch_status


if __name__ == "__main__":
    raise SystemExit(main())
