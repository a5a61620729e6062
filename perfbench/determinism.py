"""Check that the benchmark is deterministic in simulated terms.

For each workload: two ``--trace 1`` runs with one seed, in separate
processes, must agree exactly on every simulated metric and every
per-layer count (host times excepted), and a run with another seed
must generate other inputs.  Usage, from the root of a checkout::

    python3 perfbench/determinism.py [workload ...] [--seeds A B]

Exits 1 on any disagreement.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402  (needs the path above)
import workloads  # noqa: E402


def _run(workload, seed, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s%s" % (" ".join(command), done.stdout, done.stderr))
    if not trace:
        for line in done.stdout.splitlines():
            if line.strip().startswith("inputs sha256 "):
                return line.split()[-1]
        raise RuntimeError("no inputs digest in the output of %s" % " ".join(command))
    path = os.path.join(HERE, "out", "%s-seed%d-layers.json" % (workload, seed))
    with open(path) as fh:
        report = json.load(fh)
    counts = {k: v for k, v in report["metrics"].items() if not layers.is_host_time(k)}
    return report["simulated"], counts


def check(workload, seed_a, seed_b):
    problems = []
    first = _run(workload, seed_a, trace=1)
    second = _run(workload, seed_a, trace=1)
    for label, a, b in (("simulated", first[0], second[0]), ("per-layer", first[1], second[1])):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                problems.append("%s %s: %r != %r" % (label, key, a.get(key), b.get(key)))
    other = _run(workload, seed_b, trace=0)
    if other == first[0]["inputs_sha256"]:
        problems.append("seeds %d and %d generate the same inputs" % (seed_a, seed_b))
    sim = first[0]
    print(
        "%-13s seed %d x2: %d simulated values, %d per-layer counts identical=%s; "
        "seed %d inputs differ=%s; reference trend %.5f s/s, p50 %.3f ms, p99 %.3f ms"
        % (
            workload, seed_a, len(sim), len(first[1]), not problems or "no", seed_b,
            other != sim["inputs_sha256"], sim["reference_trend"], sim["sim_p50_ms"],
            sim["sim_p99_ms"],
        )
    )
    for problem in problems:
        print("  PROBLEM: " + problem)
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args(argv)
    ok = all([check(w, *args.seeds) for w in args.workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
