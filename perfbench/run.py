"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see README.md) closed-loop, one client issuing the next op
when the previous one returns, for --seconds. Every op's output is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics:

- ``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, from
  WORKERS fresh interpreters run one after another (worker.py).
- ``--trace 1`` reports the per-layer metrics, from this process. It runs a
  fixed, seeded pass of ops in whole passes, half the time untraced and half
  with every public function wrapped by tracer.py, so that call counts repeat
  exactly and the tracing overhead is the difference between the two halves.

A run record (versions, machine, seeds, raw figures) is written to
perfbench/out/, with the traced spans next to it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKERS = 9
CLI_PROBE_REPEATS = 5
# Never used while the benchmark was written; a claimed gain must also hold here.
HOLDOUT_SEED = 20020918
MAX_FAILURES_SHOWN = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_source() -> None:
    """Exit unless the package under test is this checkout's src/ghzshare."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("ghzshare")
    if spec is None or spec.origin is None or Path(spec.origin).parent != src / "ghzshare":
        sys.exit(f"perfbench: no ghzshare package under {src}; run from a repository checkout")


def run_workers(name: str, seed: int, seconds: float, failures) -> tuple[list, float, list, int]:
    """An untraced run: WORKERS fresh interpreters, one after another.

    Each times its own set-up, so set-up is sampled WORKERS times, then runs
    ops for seconds / WORKERS on the next segment of the seed's input stream;
    the run pools them, so it also spans several process memory layouts
    rather than one. Returns (latencies ns, loop wall s, set-up seconds per
    worker, peak RSS KiB).
    """
    latencies, wall, setups, rss_kb = [], 0.0, [], 0
    for _ in range(WORKERS):
        argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(len(latencies))]
        code, out, err = workloads.run_child([*argv, repr(seconds / WORKERS)], ROOT)
        if code != 0:
            raise RuntimeError(f"worker exited {code}: {err.decode(errors='replace')}")
        report = json.loads(out)
        latencies += report["latencies_ns"]
        wall += report["wall_s"]
        setups.append(report["setup_s"])
        rss_kb = max(rss_kb, report["peak_rss_kb"])
        failures.attempted += report["attempted"]
        failures.reasons += report["failures"]
    return latencies, wall, setups, rss_kb


def cli_probes(seed: int) -> dict[str, tuple[float, str]]:
    """Start-up costs of a fresh interpreter, from the median of CLI_PROBE_REPEATS rounds."""
    commands = {
        "pass": ["-c", "pass"],
        "numpy": ["-c", "import numpy"],
        "cli": ["-c", "import ghzshare.cli"],
        "run": ["-m", "ghzshare.cli", "run", "--format", "structured", "--seed", str(seed)],
    }
    walls: dict[str, list[float]] = {key: [] for key in commands}
    for _ in range(CLI_PROBE_REPEATS):
        for key, args in commands.items():
            start = time.perf_counter()
            code, _, err = workloads.run_child([sys.executable, *args], ROOT)
            walls[key].append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{args} exited {code}: {err.decode(errors='replace')}")
    ms = {key: statistics.median(v) * 1e3 for key, v in walls.items()}
    return {
        "cli.interpreter_ms": (ms["pass"], "ms"),
        "cli.numpy_import_ms": (ms["numpy"] - ms["pass"], "ms"),
        "cli.import_ms": (ms["cli"] - ms["pass"], "ms"),
        "cli.cold_run_ms": (ms["run"], "ms"),
        "cli.startup_share": (ms["cli"] / ms["run"], "ratio"),
    }


def nearest_rank(ordered: list[int], pct: float) -> int:
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload, seed, seconds, failures, record):
    latencies, wall, setups, rss_kb = run_workers(workload.name, seed, seconds, failures)
    ordered = sorted(latencies)
    tail = nearest_rank(ordered, workload.tail_pct)
    beyond = len(ordered) - bisect.bisect_right(ordered, tail)
    record["tail"] = {"percentile": workload.tail_pct, "samples": len(ordered), "beyond": beyond}
    record["setup_samples_s"] = setups
    return {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "op_tail_ms": (tail / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_share": (1 - len(failures.reasons) / failures.attempted, "ratio"),
    }


def per_layer(workload, seed, seconds, failures, record):
    workload.setup()
    failures.add(workload.check(*workloads.first_op(workload, seed)))
    ops = workload.trace_inputs(seed)
    plain_ops, plain_wall = workloads.pass_loop(workload, ops, seconds / 2, failures)
    tracer = tracing.Tracer()
    stop = tracing.install(tracer)
    try:
        traced_ops, traced_wall = workloads.pass_loop(workload, ops, seconds / 2, failures, tracer)
    finally:
        stop()
    metrics = tracing.layer_metrics(tracer, traced_ops)
    plain_ms = plain_wall / plain_ops * 1e3
    traced_ms = traced_wall / traced_ops * 1e3
    metrics["trace.untraced_ms_per_op"] = (plain_ms, "ms")
    metrics["trace.traced_ms_per_op"] = (traced_ms, "ms")
    metrics["trace.overhead_ms_per_op"] = (traced_ms - plain_ms, "ms")
    metrics["trace.overhead_share"] = ((traced_ms - plain_ms) / plain_ms, "ratio")
    metrics.update(cli_probes(seed))
    record["trace_pass"] = {"ops": len(ops), "untraced_ops": plain_ops, "traced_ops": traced_ops}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    record["spans"] = {"path": str(spans_path.relative_to(ROOT)), "kept": len(tracer.spans)}
    return metrics


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git clone, else None."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True)
    except OSError:
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over src/ (paths and bytes), which names the code measured even without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_metric_names(metrics: dict, trace: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if wanted != got:
        missing = sorted(set(wanted.items()) ^ set(got.items()))
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {missing}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.exit_on_sigterm()
    require_source()
    workload = workloads.WORKLOADS[args.workload](ROOT)
    failures = workloads.Failures()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load": "closed loop, 1 client",
    }

    if args.trace:
        metrics = per_layer(workload, args.seed, args.seconds, failures, record)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, failures, record)
    check_metric_names(metrics, args.trace)

    failed = len(failures.reasons)
    record.update(attempted=failures.attempted, failed=failed)
    record["failures"] = failures.reasons[:MAX_FAILURES_SHOWN]
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for reason in failures.reasons[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED: {reason}")
    if "tail" in record:
        tail = record["tail"]
        print(
            f"# op_tail_ms is p{tail['percentile']:g}: {tail['beyond']} of "
            f"{tail['samples']} samples lie beyond it"
        )
    print(f"# failed_share {failed / failures.attempted} ({failed} of {failures.attempted})")
    print(f"# record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": failures.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
