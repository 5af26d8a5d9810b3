"""Command-line front end.

Subcommands: run a single protocol instance, execute the exhaustive
verifier, reproduce the collapse table, or run one scripted security
scenario.  Output is plain text or the canonical JSON used by the golden
tests; identical flags and seed produce byte-identical output.
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
    lines = [f"seed: {transcript.seed}"]
    lines.append(
        "true config: state "
        f"{transcript.true_label.value}, action {transcript.true_action.render()}"
    )
    lines.append("announcements:")
    for ann in transcript.announcements:
        data = ann.to_dict()
        if data["type"] == "measurement":
            pair = tuple(data["pair"])
            lines.append(f"  {data['party']} {pair}: {data['outcome']}")
        elif data["type"] == "dealer_state":
            lines.append(f"  Dealer state: {data['state']}")
        else:
            lines.append(f"  Dealer position: {data['position']}")
    return lines


def _cmd_run(args) -> int:
    label = None if args.state == "random" else StateLabel(args.state)
    position = None if args.position == "random" else int(args.position)
    transcript = run_protocol(label, args.secret, position, args.seed)
    try:
        result = replay(transcript)
        recon_data = {
            "action": result.action.render(),
            "secret": result.secret,
            "tamper": result.tamper.render() if result.tamper else None,
        }
        failed = None
    except NoMatch as exc:
        recon_data = {"action": None, "secret": None, "tamper": None, "error": str(exc)}
        failed = str(exc)
    if args.format == "structured":
        payload = {"transcript": transcript.to_dict(), "reconstruction": recon_data}
        print(_dump(payload))
    else:
        for line in _render_transcript(transcript):
            print(line)
        if failed is None:
            print(f"reconstructed action: {recon_data['action']}")
            print(f"reconstructed secret: {recon_data['secret']}")
            print(f"tamper report: {recon_data['tamper'] or 'none'}")
        else:
            print(f"reconstruction failed: {failed}")
    return 0 if failed is None else 1


def _cmd_verify(args) -> int:
    records = exhaustive_verify()
    summary = verify_summary(records)
    if args.format == "structured":
        payload = {"summary": summary, "records": [r.to_dict() for r in records]}
        print(_dump(payload))
    else:
        print(
            f"{summary['configurations']} configurations, "
            f"{summary['branches']} branches, {summary['failures']} failures"
        )
        for record in records:
            if not record.passed:
                print(
                    f"  FAIL {record.label} {record.gate}{record.position} "
                    f"({record.p1},{record.p2},{record.p3}): "
                    + "; ".join(record.failures)
                )
    return 0 if summary["failures"] == 0 else 1


def _cmd_table(args) -> int:
    rows = table1()
    bad = [r for r in rows if not r.matched_pairings]
    if args.format == "structured":
        print(_dump([r.to_dict() for r in rows]))
    else:
        for row in rows:
            status = "FLAGGED" if row.flagged else "ok"
            print(f"{row.gate:>2}1 / {row.p1_outcome}: {row.oracle_2345}  [{status}]")
            print(f"      pairing (2,5)(3,4): {row.oracle_2534}")
            print(f"      printed: {row.printed}")
            if row.flags:
                print(f"      flags: {', '.join(row.flags)}")
    return 0 if not bad else 1


def _cmd_scenario(args) -> int:
    report = SCENARIOS[args.name]()
    if args.format == "structured":
        print(_dump(report.to_dict()))
    else:
        print(f"scenario: {report.name}")
        print(f"script: {_dump(report.script)}")
        for key, value in report.states.items():
            print(f"{key}: {value if isinstance(value, str) else _dump(value)}")
        for a in report.assertions:
            mark = "PASS" if a.passed else "FAIL"
            print(f"  [{mark}] {a.name}")
            print(f"         expected: {a.expected}")
            print(f"         observed: {a.observed}")
        print(f"verdict: {'pass' if report.verdict else 'fail'}")
    return 0 if report.verdict else 1


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
    run_p.add_argument("--format", choices=["text", "structured"], default="text")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="exhaustively verify every honest branch")
    verify_p.add_argument("--format", choices=["text", "structured"], default="text")
    verify_p.set_defaults(func=_cmd_verify)

    table_p = sub.add_parser("table", help="reproduce the collapse table with diff flags")
    table_p.add_argument("--format", choices=["text", "structured"], default="text")
    table_p.set_defaults(func=_cmd_table)

    scen_p = sub.add_parser("scenario", help="run one scripted security scenario")
    scen_p.add_argument("name", choices=sorted(SCENARIOS))
    scen_p.add_argument("--format", choices=["text", "structured"], default="text")
    scen_p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
