"""Mutation scan of the certificate re-checkers and the engine-defect guards.

In a temporary copy of ``src`` and ``tests``, each refusal of the checkers
in ``TARGETS`` is replaced by ``pass``, one at a time, and the certificate
tests are run on that copy.  A refusal is a ``problems.append(...)``
statement, a ``raise`` statement, or a ``return`` of a list display (the
checkers that stop at their first refusal return it as ``[message]``).  A
mutant that no test fails is a survivor: the refusal it deleted is pinned
by no test.  A survivor with a reason in ``EXPLAINED`` is listed with it;
any other survivor makes the scan exit 1.

Run it from the repository root, with pytest installed::

    python tests/mutation_scan.py          # the scan: a table, then the verdict
    python tests/mutation_scan.py --list   # the mutants only, running nothing

The script itself uses only the standard library, and pytest does not
collect it (its name does not start with ``test_``), so a Tier-1 run does
not pay for it.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# file under the repository root -> the functions whose refusals are mutated
TARGETS = {
    "src/arcdist/distance.py": ("verify_certificate", "_distance_two_witness"),
    "src/arcdist/serialize.py": ("_verify_surgery_trace", "_verify_level_certificate", "_verify_level_report"),
    "src/arcdist/surgery.py": ("_surgery",),
    "src/arcdist/overlay.py": ("_glued_intervals", "_check_minimal", "_sign_vector_pass"),
}

CERTIFICATE_TESTS = (
    "tests/test_cli.py",
    "tests/test_distance.py",
    "tests/test_intersection.py",
    "tests/test_leveling.py",
    "tests/test_surgery.py",
)

# "function: the statement on one line" (as --list prints it) -> why deleting it fails no test
EXPLAINED: dict[str, str] = {}


class Mutant:
    def __init__(self, path: str, function: str, node: ast.stmt, text: str):
        self.path, self.start, self.end = path, node.lineno, node.end_lineno
        self.col, self.end_col = node.col_offset, node.end_col_offset
        source = re.sub(r"\s*\n\s*", "", ast.get_source_segment(text, node))  # one line
        self.key = f"{function}: {source}"

    def apply(self, text: str) -> str:
        """``text`` with this statement replaced by ``pass``."""
        lines = text.splitlines(keepends=True)
        head, tail = lines[self.start - 1][: self.col], lines[self.end - 1][self.end_col :]
        return "".join(lines[: self.start - 1] + [head + "pass" + tail] + lines[self.end :])


def _is_refusal(node: ast.AST) -> bool:
    if isinstance(node, ast.Raise):
        return True
    if isinstance(node, ast.Return):
        return isinstance(node.value, ast.List) and bool(node.value.elts)
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "append"
            and isinstance(func.value, ast.Name)
            and func.value.id == "problems"
        )
    return False


def mutants() -> list[Mutant]:
    out = []
    for path, functions in TARGETS.items():
        text = (ROOT / path).read_text()
        defs = {node.name: node for node in ast.walk(ast.parse(text, path)) if isinstance(node, ast.FunctionDef)}
        for name in functions:
            if name not in defs:
                sys.exit(f"{path}: no function {name!r}; update TARGETS")
            found = sorted((n for n in ast.walk(defs[name]) if _is_refusal(n)), key=lambda n: n.lineno)
            out += [Mutant(path, name, n, text) for n in found]
    return out


def _run_tests(copy: pathlib.Path, tests) -> tuple[bool, str]:
    """(passed, first failing test id or the last line of the output)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.M)
    if failed:
        return False, failed.group(1)
    tail = (done.stdout.strip().splitlines() or [f"exit {done.returncode}"])[-1]
    return done.returncode == 0, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the mutants and run nothing")
    args = parser.parse_args(argv)
    found = mutants()
    if args.list:
        for m in found:
            print(f"{m.path}:{m.start}  {m.key}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutation-scan-") as tmp:
        copy = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests", "pyproject.toml"):
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=ignore)
            else:
                shutil.copy2(source, copy / part)
        passed, detail = _run_tests(copy, CERTIFICATE_TESTS)
        if not passed:
            print(f"the unmutated copy fails the certificate tests: {detail}")
            return 1

        print("| file:line | mutant (replaced by `pass`) | result |")
        print("|---|---|---|")
        unexplained, explained = [], set()
        started = time.perf_counter()
        for m in found:
            target = copy / m.path
            original = target.read_text()
            target.write_text(m.apply(original))
            try:
                passed, detail = _run_tests(copy, CERTIFICATE_TESTS)
            finally:
                target.write_text(original)
            if not passed:
                result = f"killed by `{detail}`"
            elif m.key in EXPLAINED:
                explained.add(m.key)
                result = f"survived: {EXPLAINED[m.key]}"
            else:
                unexplained.append(m)
                result = "SURVIVED, no stated reason"
            print(f"| `{pathlib.Path(m.path).name}:{m.start}` | `{m.key}` | {result} |", flush=True)

    killed = len(found) - len(explained) - len(unexplained)
    print(
        f"\n{len(found)} mutants: {killed} killed, {len(explained)} survived with a stated reason, "
        f"{len(unexplained)} survived without one ({time.perf_counter() - started:.0f} s)"
    )
    for key in sorted(set(EXPLAINED) - explained):
        print(f"note: EXPLAINED names {key!r}, which no surviving mutant matches")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
