"""Every `raise InternalCheckError` in src/ can fail a test.

The table `tests/check_sites.json` names one test for each raise site,
keyed by module, enclosing function and message (placeholders of an
f-string read `{}`), so that moving code does not stale it. The sweep
copies src/ to a temporary directory and, one site at a time, replaces
the raise by `pass` in the copy and runs the site's test against it. It
fails when a site has no entry, when an entry matches no site, when a
named test fails on the unchanged copy, or when a named test still
passes with its site disabled.

Run from anywhere (pytest does not collect this file):

    python tests/check_sweep.py
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "tests" / "check_sites.json"

Key = Tuple[str, str, str]  # module, function, message


class Site(NamedTuple):
    key: Key
    path: Path  # relative to src/
    node: ast.Raise


def _message(call: ast.Call) -> str:
    if not call.args:
        return ""
    arg = call.args[0]
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values
        )
    return ast.unparse(arg)


class _Finder(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: List[str] = []
        self.found: List[Tuple[str, str, ast.Raise]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == "InternalCheckError"
        ):
            self.found.append((".".join(self.scope), _message(exc), node))


def find_sites(src: Path) -> List[Site]:
    sites = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts)
        finder = _Finder()
        finder.visit(ast.parse(path.read_bytes(), str(rel)))
        sites += [Site((module, fn, msg), rel, node) for fn, msg, node in finder.found]
    return sites


def disable(source: bytes, node: ast.Raise) -> bytes:
    """The source with the raise statement replaced by `pass`; AST column
    offsets count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    line = lines[first][: node.col_offset] + b"pass" + lines[last][node.end_col_offset :]
    return b"".join(lines[:first] + [line] + lines[last + 1 :])


def run_tests(tests: List[str], env: Dict[str, str]) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=REPO, env=env, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    entries = json.loads(TABLE.read_text())
    table = {(e["module"], e["function"], e["message"]): e["test"] for e in entries}
    errors = []
    if len(table) != len(entries):
        errors.append("the table lists a site twice")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        sites = find_sites(src)
        keys = [s.key for s in sites]
        errors += [f"two sites share the key {k}" for k in set(keys) if keys.count(k) > 1]
        errors += [f"no test named for {k}" for k in keys if k not in table]
        errors += [f"entry matches no site: {k}" for k in table if k not in keys]
        named = sorted({table[k] for k in keys if k in table})
        if named and run_tests(named, env) != 0:
            errors.append("a named test fails with every site enabled")

        for site in sites:
            test = table.get(site.key)
            if test is None:
                continue
            path = src / site.path
            original = path.read_bytes()
            path.write_bytes(disable(original, site.node))
            try:
                rc = run_tests([test], env)
            finally:
                path.write_bytes(original)
            verdict = {0: "still passes", 1: "fails"}.get(rc, f"exits {rc}")
            print(f"{verdict:12} {site.path}:{site.node.lineno} {test}")
            if rc != 1:
                errors.append(f"{test} {verdict} with {site.key} disabled")
    for e in errors:
        print("error:", e, file=sys.stderr)
    print(f"{len(sites)} sites in {time.perf_counter() - start:.1f} s")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
