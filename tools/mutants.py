"""Statement-deletion mutants of the package, run against the test suite.

Each mutant replaces one statement inside a function of ``src/ghzshare`` with
``pass``; docstrings and ``pass`` statements are left alone, and so are
module and class bodies, where a deleted definition or import fails at
import or in the lint tests.  A mutant is killed when a test fails that
passes on the unmutated source; one that no test notices survives, and
marks code whose effect no check reads.

The tool works on copies of the checkout, ``perfbench/`` included, since a
test reads the benchmark's tracer.  Every module of a copy is first
rewritten with ``ast.unparse``, which drops comments, and the whole suite
runs once on that baseline; the tests that fail there (the acceptance
criteria that fail by design) are deselected from every mutant's run.
Each mutant then runs its module's own tests, the golden and the domain
tests with ``-x``, and the whole suite only if those pass.

One JSON line per mutant goes to ``--out`` (default stdout) as it finishes,
and a summary with the survivors to stderr.  Standard library only; not a
tier-1 test, since a survivor costs a full-suite run.

    python3 tools/mutants.py --jobs 2 --out mutants.jsonl
    python3 tools/mutants.py --checkout ../other-tree
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "ghzshare")
FIRST_TESTS = ("tests/test_golden.py", "tests/test_domain.py")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", "--tb=no")
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"
)


def _kept(stmt: ast.stmt) -> bool:
    """Whether deleting the statement is a mutant: not a docstring, not ``pass``."""
    if isinstance(stmt, ast.Pass):
        return False
    return not (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def sites(tree: ast.Module) -> list[tuple[list, int]]:
    """(block, index) of every statement inside a function, in source order."""
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) not in inside:
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list):
                found += [(block, i) for i, stmt in enumerate(block) if _kept(stmt)]
    return sorted(found, key=lambda site: (site[0][site[1]].lineno, site[0][site[1]].col_offset))


def mutants(source: str) -> list[tuple[int, str, str]]:
    """(line, deleted statement's first line, mutated source) of each site.

    Lines are the source's own; each mutant is unparsed, as the baseline is.
    """
    made = []
    for index in range(len(sites(ast.parse(source)))):
        tree = ast.parse(source)
        block, i = sites(tree)[index]
        stmt = block[i]
        block[i] = ast.copy_location(ast.Pass(), stmt)
        made.append((stmt.lineno, ast.unparse(stmt).splitlines()[0], ast.unparse(tree) + "\n"))
    return made


def _failures(output: str) -> list[str]:
    """Test ids from pytest's short summary (``-rfE``)."""
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def _pytest(copy: Path, args: list[str], timeout: float) -> tuple[int | None, str]:
    """Exit code (None on a timeout) and output of one pytest run in a copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [*PYTEST, *args],
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the tests' own child processes too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out


def _prepare(checkout: Path, dest: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Copy the checkout and unparse its modules: each module's source and baseline."""
    shutil.copytree(checkout, dest, ignore=COPY_IGNORE)
    sources, baseline = {}, {}
    for path in sorted((dest / PACKAGE).glob("*.py")):
        sources[path.name] = path.read_text()
        baseline[path.name] = ast.unparse(ast.parse(sources[path.name])) + "\n"
        path.write_text(baseline[path.name])
    return sources, baseline


def _run_mutant(copy: Path, module: str, deselect: list[str], timeout: float):
    """(status, first failing test) of the mutant written in the copy."""
    own = Path("tests", f"test_{module.removesuffix('.py')}.py")
    first = [str(own)] if (copy / own).exists() else []
    first += [t for t in FIRST_TESTS if t not in first]
    for targets in (first, ["tests"]):
        code, out = _pytest(copy, ["-x", *deselect, *targets], timeout)
        if code is None:
            return "timeout", None
        if code in (1, 2):  # a failure, or an error in collection
            failed = _failures(out)
            return "killed", failed[0] if failed else f"exit {code}"
        if code != 0:
            raise RuntimeError(f"pytest exited {code} on a {module} mutant:\n{out}")
    return "survived", None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="the tree to mutate")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once")
    parser.add_argument("--out", type=Path, help="JSON lines file (default stdout)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ghzshare-mutants-") as scratch:
        copies = [Path(scratch, f"copy{n}") for n in range(args.jobs)]
        sources, baseline = _prepare(args.checkout.resolve(), copies[0])
        for copy in copies[1:]:
            shutil.copytree(copies[0], copy)

        started = time.perf_counter()
        code, out = _pytest(copies[0], ["--continue-on-collection-errors", "tests"], 3600)
        base_seconds = time.perf_counter() - started
        if code not in (0, 1):
            print(f"baseline run exited {code}:\n{out}", file=sys.stderr)
            return 2
        failing = _failures(out)
        deselect = [arg for test in failing for arg in ("--deselect", test)]
        # a mutant that loops forever is a kill once it takes ten baselines
        timeout = max(60.0, 10 * base_seconds)
        print(
            f"baseline: {len(failing)} failing {failing}, {base_seconds:.1f} s",
            file=sys.stderr,
        )

        work = [
            (module, line, text, mutated)
            for module in sorted(sources)
            for line, text, mutated in mutants(sources[module])
        ]
        print(f"{len(work)} mutants in {len(sources)} modules", file=sys.stderr)

        free: queue.Queue[Path] = queue.Queue()
        for copy in copies:
            free.put(copy)
        lock = threading.Lock()
        sink = args.out.open("w") if args.out else sys.stdout
        survivors = []

        def run(item):
            module, line, text, source = item
            copy = free.get()
            path = copy / PACKAGE / module
            try:
                path.write_text(source)
                began = time.perf_counter()
                status, by = _run_mutant(copy, module, deselect, timeout)
                seconds = round(time.perf_counter() - began, 2)
            finally:
                path.write_text(baseline[module])
                free.put(copy)
            record = {
                "module": module,
                "line": line,
                "statement": text,
                "status": status,
                "killed_by": by,
                "seconds": seconds,
            }
            with lock:
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                if status == "survived":
                    survivors.append(record)

        try:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                list(pool.map(run, work))
        finally:
            if args.out:
                sink.close()

    survivors.sort(key=lambda r: (r["module"], r["line"]))
    print(f"{len(work)} mutants, {len(survivors)} survived", file=sys.stderr)
    for record in survivors:
        print(f"  {record['module']}:{record['line']}  {record['statement']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
