"""The three benchmark workloads: input generators, ops and output checks.

Each workload turns ``--seed`` into a stream of inputs, runs one op per
input against the package, and checks the op's output with the benchmark's
own oracles (see README.md). Nothing here imports ``ghzshare`` or ``numpy``
at module level: ``setup()`` does, so that set-up time includes the imports.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent

SECRETS = ("00", "01", "10", "11")
OUTCOMES = ("a+", "a-", "b+", "b-")
SCENARIO_NAMES = ("lie-state", "lie-position", "p1-withholds", "no-collusion", "eve-intercept")

# The paper's encoding table, kept here as an oracle independent of protocol._ENCODE.
ENCODING = {
    ("00", 1): "I", ("01", 1): "X", ("11", 1): "iY", ("10", 1): "Z",
    ("11", 6): "I", ("10", 6): "X", ("00", 6): "iY", ("01", 6): "Z",
}  # fmt: skip
# Closed-form frame decoder: (x, z) -> gate, with x = par(P1) ^ par(P3) and
# z = ph(P1) ^ ph(P2) ^ ph(P3), where parity is a=0, b=1 and phase is +=0, -=1.
FRAME_GATE = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "iY"}

# All 512 (label, position, P1, P2, P3) announcement tuples.
TUPLES = tuple(itertools.product("ABCD", (1, 6), OUTCOMES, OUTCOMES, OUTCOMES))

CHILD_TIMEOUT_S = 60.0
# The CLI commands whose `--format structured` output the audit reproduces in
# process; record_expected.py records their digests from the CLI itself.
AUDIT_COMMANDS = [("verify",), ("table",)] + [("scenario", n) for n in SCENARIO_NAMES]


def _par(outcome: str) -> bool:
    return outcome[0] == "b"


def _ph(outcome: str) -> bool:
    return outcome[1] == "-"


@functools.cache
def _expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def digest_mismatch(key: str, stdout: bytes, code: int) -> str | None:
    """Compare structured output and exit code with the values recorded in expected.json."""
    want = _expected()[key]
    got = hashlib.sha256(stdout).hexdigest()
    if got != want["sha256"]:
        return f"{key}: output digest {got[:12]} != recorded {want['sha256'][:12]}"
    if code != want["exit"]:
        return f"{key}: exit code {code} != recorded {want['exit']}"
    return None


def _structured(data) -> bytes:
    # Exactly what `ghzshare.cli ... --format structured` prints.
    return (json.dumps(data, indent=2) + "\n").encode()


def attempt(workload, inp):
    """Run one op; return (output, None) or (None, the exception it raised)."""
    try:
        return workload.op(inp), None
    except Exception as exc:  # the op's checker decides whether it was expected
        return None, exc


def first_op(workload, seed):
    """The warm-up op: the first input of the seed's stream, run once."""
    inp = next(workload.inputs(seed))
    return (inp, *attempt(workload, inp))


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: list[str] = []

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.reasons.append(problem)


def run_op(workload, inp, failures: Failures) -> int:
    """One checked op; returns its duration in ns."""
    start = time.perf_counter_ns()
    out, exc = attempt(workload, inp)
    elapsed = time.perf_counter_ns() - start
    failures.add(workload.check(inp, out, exc))
    return elapsed


def timed_loop(workload, inputs, seconds: float, failures: Failures):
    """Ops back to back until the deadline; returns (latencies ns, wall s)."""
    latencies = []
    start = time.perf_counter()
    deadline = start + seconds
    for inp in inputs:
        latencies.append(run_op(workload, inp, failures))
        if time.perf_counter() >= deadline:
            break
    return latencies, time.perf_counter() - start


def pass_loop(workload, ops, seconds: float, failures: Failures, tracer=None):
    """Whole passes over a fixed op list until the deadline; returns (ops, wall s)."""
    count = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for inp in ops:
            if tracer is not None:
                tracer.op_id = count
            run_op(workload, inp, failures)
            count += 1
        if time.perf_counter() >= deadline:
            return count, time.perf_counter() - start


class Workload:
    """One workload. Ops reach the package through its modules, looked up at
    call time, so that the traced run's wrappers see every call."""

    name = ""
    # Fixed per workload so that runs compare; see "End-to-end metrics" in README.md.
    tail_pct = 95.0
    trace_pass = 256  # ops in one traced pass

    def __init__(self, root: Path):
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, seed):
        raise NotImplementedError

    def trace_inputs(self, seed) -> list:
        return list(itertools.islice(self.inputs(seed), self.trace_pass))

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out, exc) -> str | None:
        """None when the output is right, else a one-line reason."""
        raise NotImplementedError


class HonestSessions(Workload):
    """run_protocol -> Transcript JSON round trip -> replay, checked against ground truth."""

    name = "honest-sessions"

    def setup(self) -> None:
        from ghzshare import protocol
        from ghzshare.qcore import StateLabel

        self.protocol = protocol
        self.labels = {None: None, **{label.value: label for label in StateLabel}}

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield (
                rng.choice((None, "A", "B", "C", "D")),
                rng.choice(SECRETS),
                rng.choice((None, 1, 6)),
                rng.getrandbits(64),
            )

    def op(self, inp):
        label, secret, position, seed = inp
        p = self.protocol
        transcript = p.run_protocol(self.labels[label], secret, position, seed)
        loaded = p.Transcript.from_json(transcript.to_json())
        return transcript, loaded, p.replay(loaded)

    def check(self, inp, out, exc):
        if exc is not None:
            return f"raised {exc!r}"
        label, secret, position, seed = inp
        transcript, loaded, result = out
        truth = transcript.true_action
        if loaded != transcript:
            return "JSON round trip changed the transcript"
        if transcript.seed != seed:
            return "transcript seed differs from the input seed"
        if label is not None and transcript.true_label.value != label:
            return f"true label {transcript.true_label.value} != requested {label}"
        if position is not None and truth.position != position:
            return f"true position {truth.position} != requested {position}"
        if ENCODING[(secret, truth.position)] != truth.gate.value:
            return f"secret {secret} at {truth.position} was encoded as {truth.gate.value}"
        if result.action != truth:
            return f"replay gave {result.action.render()}, truth {truth.render()}"
        if result.secret != secret:
            return f"replay gave secret {result.secret}, encoded {secret}"
        return None


class TupleSweep(Workload):
    """reconstruct() on every one of the 512 announcement tuples, in seeded order, per op.

    Single tuples were too short to time steadily here: on the shared machine
    the benchmark was written on, speed switches between two states within a
    second, so a sub-millisecond op lands in one or the other and the median
    of single tuples (or of batches of 8) jumped by up to 30% between runs. A
    full sweep averages over both states, and every op does the same work:
    256 successes and 256 NoMatch.
    """

    name = "tuple-sweep"
    tail_pct = 90.0
    trace_pass = 1

    def setup(self) -> None:
        from ghzshare import recon
        from ghzshare.protocol import make_announcements
        from ghzshare.qcore import StateLabel, outcome_from_ascii

        self.recon = recon
        self.announcements = [
            make_announcements(
                outcome_from_ascii(o2),
                outcome_from_ascii(o3),
                StateLabel(label),
                outcome_from_ascii(o1),
                position,
            )
            for label, position, o1, o2, o3 in TUPLES
        ]

    def inputs(self, seed):
        rng = random.Random(seed)
        order = list(range(len(TUPLES)))
        while True:
            rng.shuffle(order)
            yield tuple(order)

    def op(self, order):
        outcomes = []
        for index in order:
            try:
                outcomes.append((self.recon.reconstruct(self.announcements[index]), None))
            except Exception as exc:  # judged per tuple by check()
                outcomes.append((None, exc))
        return outcomes

    def check(self, order, out, exc):
        if exc is not None:
            return f"raised {exc!r}"
        for index, (result, error) in zip(order, out):
            problem = self._check_tuple(TUPLES[index], result, error)
            if problem:
                return f"{TUPLES[index]}: {problem}"
        return None

    def _check_tuple(self, announced, result, exc):
        label, position, o1, o2, o3 = announced
        reachable = (_par(o2) ^ _par(o3)) == (label in "BC")
        if not reachable:
            if type(exc) is not self.recon.NoMatch:
                return f"expected NoMatch, got {exc!r}"
            return None
        if exc is not None:
            return f"honest-reachable tuple raised {exc!r}"
        gate = FRAME_GATE[(_par(o1) ^ _par(o3), _ph(o1) ^ _ph(o2) ^ _ph(o3))]
        got = (result.action.gate.value, result.action.position, result.secret)
        secret = next(s for (s, p), g in ENCODING.items() if p == position and g == gate)
        if got != (gate, position, secret):
            return f"reconstructed {got}, frame decoder {(gate, position, secret)}"
        return None


class Audit(Workload):
    """Full in-process audit: verify, table1 and all five scenarios, serialised."""

    name = "audit"
    tail_pct = 70.0
    trace_pass = 1

    def setup(self) -> None:
        from ghzshare import harness

        self.harness = harness

    def inputs(self, seed):
        # The audit has no data inputs; the seed orders the five scenarios.
        rng = random.Random(seed)
        order = list(SCENARIO_NAMES)
        while True:
            rng.shuffle(order)
            yield tuple(order)

    def op(self, order):
        h = self.harness
        outputs = {}
        records = h.exhaustive_verify()
        summary = h.verify_summary(records)
        outputs["verify"] = (
            _structured({"summary": summary, "records": [r.to_dict() for r in records]}),
            0 if summary["failures"] == 0 else 1,
        )
        rows = h.table1()
        outputs["table"] = (
            _structured([r.to_dict() for r in rows]),
            0 if all(r.matched_pairings for r in rows) else 1,
        )
        for name in order:
            report = h.SCENARIOS[name]()
            code = 0 if report.verdict else 1
            outputs[f"scenario {name}"] = (_structured(report.to_dict()), code)
        return outputs

    def check(self, order, out, exc):
        if exc is not None:
            return f"raised {exc!r}"
        for key, (stdout, code) in out.items():
            problem = digest_mismatch(key, stdout, code)
            if problem:
                return problem
        if len(out) != len(AUDIT_COMMANDS):
            return f"audit produced {len(out)} results"
        return None


WORKLOADS = {w.name: w for w in (HonestSessions, TupleSweep, Audit)}


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so subprocess.run still kills and reaps the child."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv, root: Path):
    """Run one child to completion; return (exit code, stdout, stderr)."""
    proc = subprocess.run(
        argv, capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=root, env=child_env(root)
    )
    return proc.returncode, proc.stdout, proc.stderr
