"""Command-line interface tests: flags, exit codes, canonical output."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzshare.cli import build_parser, main
from ghzshare.protocol import Transcript
from ghzshare.recon import NoMatch
from test_golden import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_run_worked_example(capsys):
    code, out = run_cli(
        capsys, "run", "--state", "A", "--secret", "11", "--position", "1", "--seed", "7"
    )
    assert code == 0
    assert "reconstructed secret: 11" in out
    assert "true config: state A, action iY1" in out


def test_run_structured_round_trips(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--state",
        "B",
        "--secret",
        "01",
        "--position",
        "6",
        "--seed",
        "21",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    transcript = Transcript.from_dict(payload["transcript"])
    assert transcript.to_dict() == payload["transcript"]
    assert payload["reconstruction"]["secret"] == "01"


def test_run_reports_a_failed_reconstruction_and_exits_1(capsys, monkeypatch):
    # no honest run is rejected, so the rejection is planted
    def refuse(transcript):
        raise NoMatch("planted rejection")

    monkeypatch.setattr("ghzshare.cli.replay", refuse)
    code, out = run_cli(capsys, "run", "--seed", "7")
    assert code == 1
    assert out.endswith("reconstruction failed: planted rejection\n")
    code, out = run_cli(capsys, "run", "--seed", "7", "--format", "structured")
    assert code == 1
    reconstruction = json.loads(out)["reconstruction"]
    assert reconstruction == {
        "action": None,
        "secret": None,
        "tamper": None,
        "error": "planted rejection",
    }


def test_run_default_seed_reproducible(capsys):
    _, first = run_cli(capsys, "run")
    _, second = run_cli(capsys, "run")
    assert first == second


@pytest.mark.parametrize(
    "argv", [["run", "--seed", "7"], ["verify"], ["table"], ["scenario", "lie-state"]]
)
def test_a_subcommand_returns_its_output_and_main_alone_prints_it(capsys, argv):
    args = build_parser().parse_args(argv)
    payload, lines, code = args.func(args)
    assert capsys.readouterr().out == ""
    assert run_cli(capsys, *argv) == (code, "\n".join(lines) + "\n")
    structured = run_cli(capsys, *argv, "--format", "structured")
    assert structured == (code, json.dumps(payload, indent=2) + "\n")


def test_verify_summary_line_and_exit(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert out.splitlines()[0] == "32 configurations, 256 branches, 0 failures"


def test_table_outputs_16_rows(capsys):
    code, out = run_cli(capsys, "table", "--format", "structured")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert all(row["matched_pairings"] for row in rows)


@pytest.mark.parametrize("name,expected_code", [("lie-position", 0), ("eve-intercept", 1)])
def test_scenario_exit_codes(capsys, name, expected_code):
    code, out = run_cli(capsys, "scenario", name)
    assert code == expected_code
    assert f"scenario: {name}" in out


def test_byte_identical_outputs(capsys):
    for argv in (
        ["verify"],
        ["table"],
        ["scenario", "no-collusion", "--format", "structured"],
        ["run", "--seed", "99", "--state", "C", "--secret", "10", "--position", "1"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second, argv


def test_scenario_structured_round_trips(capsys):
    from ghzshare.harness import scenario_no_collusion

    code, out = run_cli(capsys, "scenario", "no-collusion", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload == scenario_no_collusion().to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_verify_structured_matches_records(capsys):
    from ghzshare.harness import exhaustive_verify, verify_summary

    code, out = run_cli(capsys, "verify", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    records = exhaustive_verify()
    assert payload["summary"] == verify_summary(records)
    assert payload["records"] == [r.to_dict() for r in records]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scenario", "unknown-name"])
    assert excinfo.value.code == 2


def test_invalid_secret_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--secret", "abc"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_out_of_range_seed_exit_code(capsys, seed):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--seed", seed])
    assert excinfo.value.code == 2
    assert f"seed must be an integer in [0, 2**64), got {seed}" in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"


def imported_modules(*argv) -> set[str]:
    """Every module a fresh interpreter imports for the given arguments.

    ``-X importtime`` reports each first import on stderr, whatever the
    program does with ``sys.modules`` or however it exits.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("-c", "import ghzshare.cli"),
        ("-m", "ghzshare.cli", "run", "--seed", "7"),
    ],
    ids=["import", "run"],
)
def test_numpy_is_not_imported_at_run_time(argv):
    modules = imported_modules(*argv)
    assert {"ghzshare.qcore", "ghzshare.harness"} <= modules
    assert not [m for m in modules if m.split(".")[0] == "numpy"]


# a protocol run, its transcript's JSON round trip and a replay, as a library caller makes them
HONEST_PATH = """import ghzshare
transcript = ghzshare.run_protocol(None, "01", None, 7)
ghzshare.replay(ghzshare.Transcript.from_json(transcript.to_json()))
"""


def test_the_honest_library_path_loads_no_fractions():
    # fractions loads decimal and numbers: milliseconds per cold start that no protocol run uses
    modules = imported_modules("-c", HONEST_PATH)
    assert {"ghzshare.qcore", "ghzshare.recon"} <= modules
    assert not modules & {"fractions", "decimal", "numbers", "ghzshare.harness"}


FIRST_PROBABILITIES = """import sys
from ghzshare import BellOutcome, PauliGate, StateLabel
from ghzshare import apply_gate, bell_probabilities, prepare_state
assert "fractions" not in sys.modules
state = apply_gate(prepare_state(StateLabel.B), PauliGate.IY, 6)
post = bell_probabilities(state, (1, 6))[BellOutcome.A_PLUS][1]
probabilities = [
    bell_probabilities(measured, pair)
    for measured, pair in [(state, (1, 6)), (state, (2, 3)), (post, (1, 6))]
]
print([[(type(p).__name__, str(p)) for p, _ in row.values()] for row in probabilities])
"""


def test_the_first_probabilities_are_the_same_fractions():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_PROBABILITIES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    quarters = [("Fraction", "1/4")] * 4
    halves = [("Fraction", "0")] * 2 + [("Fraction", "1/2")] * 2
    certain = [("Fraction", "1")] + [("Fraction", "0")] * 3
    assert ast.literal_eval(proc.stdout) == [quarters, halves, certain]


def loaded_after_importing_the_cli(names) -> list[str]:
    """Which of the named modules a fresh interpreter holds after ``import ghzshare.cli``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"import sys, ghzshare.cli; print(sorted({set(names)!r} & sys.modules.keys()))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    ).stdout
    return ast.literal_eval(out)


def test_numpy_is_not_in_sys_modules_after_import():
    assert loaded_after_importing_the_cli(["numpy"]) == []


def test_dataclasses_and_inspect_are_not_in_sys_modules_after_import():
    # dataclasses loads inspect, which loads ast, dis and tokenize: milliseconds per cold start
    assert loaded_after_importing_the_cli(["dataclasses", "inspect"]) == []


def test_fractions_is_not_in_sys_modules_after_import():
    # fractions loads decimal and numbers: milliseconds of every cold command,
    # `ghzshare run` included, though only a probability needs a Fraction
    assert loaded_after_importing_the_cli(["fractions", "decimal", "numbers"]) == []


# each cache once, under the first name that holds it: several modules import prepare_state
CACHE_SIZES = """import sys, ghzshare.cli
caches = {}
for module in sorted(sys.modules):
    if module.split(".")[0] == "ghzshare":
        for name, value in vars(sys.modules[module]).items():
            if hasattr(value, "cache_info"):
                caches.setdefault(id(value), (f"{module}.{name}", value.cache_info().currsize))
print(sorted(caches.values()))"""


def test_every_cache_is_empty_after_importing_the_cli():
    # a table filled at import time would be paid by every cold start, used or not
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", CACHE_SIZES], capture_output=True, text=True, env=env, timeout=60
    ).stdout
    sizes = dict(ast.literal_eval(out))
    sources = "".join(path.read_text() for path in (SRC / "ghzshare").glob("*.py"))
    assert len(sizes) == sources.count("functools.cache") + sources.count("functools.lru_cache")
    assert "ghzshare.recon._decoder" in sizes
    assert {name: size for name, size in sizes.items() if size} == {}


# Runs each command of a JSON list of argv lists in one interpreter and prints
# a JSON list of [stdout, exit code] pairs.
CLI_OUTPUTS = """import contextlib, io, json, sys
from ghzshare.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    outputs.append([stdout.getvalue(), code])
print(json.dumps(outputs))"""

STRUCTURED_AUDIT = [argv for argv in sorted(GOLDEN) if argv[0] != "run" and "structured" in argv]


def audit_outputs_in_a_fresh_interpreter(hash_seed: str, *flags: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CLI_OUTPUTS, json.dumps(STRUCTURED_AUDIT)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_structured_audit_output_does_not_depend_on_the_interpreter():
    # Strings hash by PYTHONHASHSEED and enum members by address, which moves
    # between interpreters: a set order that reached the output would show here.
    # The second runs with -O, so no output leans on an assert statement.
    assert len(STRUCTURED_AUDIT) == 7  # verify, table and the five scenarios
    first = audit_outputs_in_a_fresh_interpreter("1")
    second = audit_outputs_in_a_fresh_interpreter("4242", "-O")
    assert first == second
    for argv, (stdout, code) in zip(STRUCTURED_AUDIT, first):
        assert (hashlib.sha256(stdout.encode()).hexdigest(), code) == GOLDEN[argv], argv


def test_a_closed_pipe_ends_the_cli_quietly_with_the_sigpipe_status():
    # 83 KB of output is more than a pipe holds, so the CLI is still writing when it closes
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghzshare.cli", "verify", "--format", "structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "summa'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (141, b"")


def test_a_buffered_write_to_a_closed_pipe_ends_the_cli_with_the_sigpipe_status():
    # a buffered stdout holds the whole small run until the CLI's own flush, which
    # fails inside main; at interpreter exit it would fail as an ignored exception
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ghzshare.cli", "run", "--seed", "7"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _traced_names() -> tuple:
    """The (module, attribute path) pairs of perfbench/tracer.py's TRACED, read with ast."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_name_the_benchmark_tracer_wraps_exists_after_importing_the_cli():
    # the tracer loads the package through this import and then wraps each name in place
    import ghzshare.cli  # noqa: F401

    traced = _traced_names()
    assert len(traced) >= 30
    for module, path in traced:
        home = sys.modules[f"ghzshare.{module}"]
        if "." in path:
            owner, attr = path.split(".")
            assert attr in vars(getattr(home, owner)), f"{module}.{path}"
        else:
            assert callable(getattr(home, path, None)), f"{module}.{path}"
    # every Term construction is counted through this hook
    assert "__post_init__" in vars(sys.modules["ghzshare.symexact"].Term)
