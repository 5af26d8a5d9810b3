"""One slice of an untraced run, in a fresh interpreter.

    python perfbench/worker.py <workload> <seed> <skip> <seconds>

Times the set-up (imports, input building and one warm-up op on the seed's
first input), then runs ops closed-loop for <seconds> on the seed's input
stream from position <skip>, and prints one JSON object: setup_s,
latencies_ns, wall_s, attempted, failures (the reasons of failed ops) and
peak_rss_kb. Workers given consecutive segments run the same inputs as one
process would.
"""

import itertools
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    workloads.exit_on_sigterm()
    name, seed, skip = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    seconds = float(sys.argv[4])
    workload = workloads.WORKLOADS[name](Path(__file__).resolve().parents[1])
    failures = workloads.Failures()
    start = time.perf_counter()
    workload.setup()
    inp, out, exc = workloads.first_op(workload, seed)
    setup_s = time.perf_counter() - start
    failures.add(workload.check(inp, out, exc))
    inputs = itertools.islice(workload.inputs(seed), skip, None)
    latencies, wall = workloads.timed_loop(workload, inputs, seconds, failures)
    report = {
        "setup_s": setup_s,
        "latencies_ns": latencies,
        "wall_s": wall,
        "attempted": failures.attempted,
        "failures": failures.reasons,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
