"""Print the digests of the fixed CLI commands' structured output, as expected.json.

    python3 perfbench/record_expected.py > perfbench/expected.json

expected.json holds, per command of workloads.AUDIT_COMMANDS, the SHA-256 of
its `--format structured` standard output and its exit code, recorded at the
commit that added the benchmark. The audit workload checks every op against
it, so an optimisation that changes one output byte counts as a failed op.
Record again only for a change meant to alter output, and say so where the
change is made.
"""

import hashlib
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    expected = {}
    for args in workloads.AUDIT_COMMANDS:
        argv = [sys.executable, "-m", "ghzshare.cli", *args, "--format", "structured"]
        code, stdout, _ = workloads.run_child(argv, ROOT)
        expected[" ".join(args)] = {"sha256": hashlib.sha256(stdout).hexdigest(), "exit": code}
    print(json.dumps(expected, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
