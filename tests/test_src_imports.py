"""No module under ``src`` imports from the tests.

The banned names are ``tests``, ``conftest`` and the stem of every module in
``tests`` (a test-local module such as ``corpus_build``).  Each ``import``
and absolute ``from ... import`` of every module under ``src`` is read from
its syntax tree, so a guarded or function-local import is found too.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_module_under_src_imports_from_the_tests():
    banned = {"tests", "conftest"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names if name.split(".")[0] in banned]
    assert found == [], "src imports from the tests:\n" + "\n".join(found)
