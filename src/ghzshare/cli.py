"""Command-line front end.

Subcommands: run a single protocol instance, execute the exhaustive
verifier, reproduce the collapse table, or run one scripted security
scenario.  Output is plain text or the canonical JSON used by the golden
tests; identical flags and seed produce byte-identical output.  Each
subcommand is a function from its arguments to its payload, its text lines
and its exit code, and prints nothing; ``main`` prints one of the two forms,
as ``--format`` asks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import SCENARIOS, exhaustive_verify, table1, verify_summary
from .protocol import Transcript, replay, run_protocol
from .qcore import StateLabel
from .recon import NoMatch

# Fixed default so that `ghzshare run` without flags is reproducible.
DEFAULT_SEED = 1234554321
# The exit status of a process that SIGPIPE ends: 128 + signal 13.
BROKEN_PIPE_EXIT = 141


def _dump(data) -> str:
    return json.dumps(data, indent=2)


def _render_transcript(transcript: Transcript) -> list[str]:
    p2, p3, dealer_state, p1, dealer_position = transcript.announcements

    def measured(announcement) -> str:
        return f"  {announcement.party} {announcement.pair}: {announcement.outcome.ascii}"

    return [
        f"seed: {transcript.seed}",
        "true config: state "
        f"{transcript.true_label.value}, action {transcript.true_action.render()}",
        "announcements:",
        measured(p2),
        measured(p3),
        f"  Dealer state: {dealer_state.label.value}",
        measured(p1),
        f"  Dealer position: {dealer_position.position}",
    ]


def _cmd_run(args) -> tuple[dict, list[str], int]:
    label = None if args.state == "random" else StateLabel(args.state)
    position = None if args.position == "random" else int(args.position)
    transcript = run_protocol(label, args.secret, position, args.seed)
    lines = _render_transcript(transcript)
    try:
        result = replay(transcript)
    except NoMatch as exc:
        recon_data = {"action": None, "secret": None, "tamper": None, "error": str(exc)}
        lines.append(f"reconstruction failed: {exc}")
        code = 1
    else:
        recon_data = {
            "action": result.action.render(),
            "secret": result.secret,
            "tamper": result.tamper.render() if result.tamper else None,
        }
        lines.append(f"reconstructed action: {recon_data['action']}")
        lines.append(f"reconstructed secret: {recon_data['secret']}")
        lines.append(f"tamper report: {recon_data['tamper'] or 'none'}")
        code = 0
    return {"transcript": transcript.to_dict(), "reconstruction": recon_data}, lines, code


def _cmd_verify(args) -> tuple[dict, list[str], int]:
    records = exhaustive_verify()
    summary = verify_summary(records)
    lines = [
        f"{summary['configurations']} configurations, "
        f"{summary['branches']} branches, {summary['failures']} failures"
    ]
    for record in records:
        if not record.passed:
            lines.append(
                f"  FAIL {record.label} {record.gate}{record.position} "
                f"({record.p1},{record.p2},{record.p3}): "
                + "; ".join(record.failures)
            )
    payload = {"summary": summary, "records": [r.to_dict() for r in records]}
    return payload, lines, 0 if summary["failures"] == 0 else 1


def _cmd_table(args) -> tuple[list, list[str], int]:
    rows = table1()
    lines = []
    for row in rows:
        status = "FLAGGED" if row.flagged else "ok"
        lines.append(f"{row.gate:>2}1 / {row.p1_outcome}: {row.oracle_2345}  [{status}]")
        lines.append(f"      pairing (2,5)(3,4): {row.oracle_2534}")
        lines.append(f"      printed: {row.printed}")
        if row.flags:
            lines.append(f"      flags: {', '.join(row.flags)}")
    code = 0 if all(row.matched_pairings for row in rows) else 1
    return [row.to_dict() for row in rows], lines, code


def _cmd_scenario(args) -> tuple[dict, list[str], int]:
    report = SCENARIOS[args.name]()
    lines = [f"scenario: {report.name}", f"script: {_dump(report.script)}"]
    for key, value in report.states.items():
        lines.append(f"{key}: {value if isinstance(value, str) else _dump(value)}")
    for a in report.assertions:
        mark = "PASS" if a.passed else "FAIL"
        lines.append(f"  [{mark}] {a.name}")
        lines.append(f"         expected: {a.expected}")
        lines.append(f"         observed: {a.observed}")
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    return report.to_dict(), lines, 0 if report.verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzshare",
        description="Simulator and verifier for the three-party GHZ secret sharing scheme.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one protocol instance")
    run_p.add_argument("--state", choices=["A", "B", "C", "D", "random"], default="random")
    run_p.add_argument("--secret", default="11", help="2-bit secret, e.g. 01")
    run_p.add_argument("--position", choices=["1", "6", "random"], default="random")
    run_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="exhaustively verify every honest branch")
    verify_p.set_defaults(func=_cmd_verify)

    table_p = sub.add_parser("table", help="reproduce the collapse table with diff flags")
    table_p.set_defaults(func=_cmd_table)

    scen_p = sub.add_parser("scenario", help="run one scripted security scenario")
    scen_p.add_argument("name", choices=sorted(SCENARIOS))
    scen_p.set_defaults(func=_cmd_scenario)

    # added last, so that each usage line lists it after the subcommand's own arguments
    for command in sub.choices.values():
        command.add_argument("--format", choices=["text", "structured"], default="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        print(_dump(payload) if args.format == "structured" else "\n".join(lines))
        sys.stdout.flush()  # a write that fails fails here, not at exit
        return code
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does. What stdout still holds
        # goes to devnull, so that the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT


if __name__ == "__main__":
    sys.exit(main())
