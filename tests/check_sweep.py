"""Every `raise InternalCheckError` in src/ can fail a test, and so can
every operand of the `or` that guards one.

The table `tests/check_sites.json` names one test for each raise site,
keyed by module, enclosing function and message (placeholders of an
f-string read `{}`), so that moving code does not stale it. An `if`
whose test is `p or q or ...` and whose body raises has one more entry
per operand, keyed by the site and the operand's position. The sweep
copies src/ to a temporary directory and, one at a time, replaces a
raise by `pass` or an operand by `False` in the copy and runs the named
test against it. It fails when a site or operand has no entry, when an
entry matches none, when a named test fails on the unchanged copy, or
when a named test still passes with its site or operand disabled.

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
from typing import Dict, List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "tests" / "check_sites.json"

Key = Tuple[str, str, str, Optional[int]]  # module, function, message, operand


class Site(NamedTuple):
    key: Key
    path: Path  # relative to src/
    node: ast.AST  # the raise, or the operand of its guard


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


def _check_message(node: ast.AST) -> Optional[str]:
    """The message of a `raise InternalCheckError(...)`, else None."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    if (
        isinstance(exc, ast.Call)
        and isinstance(exc.func, ast.Name)
        and exc.func.id == "InternalCheckError"
    ):
        return _message(exc)
    return None


class _Finder(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: List[str] = []
        self.found: List[Tuple[str, str, Optional[int], ast.AST]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Raise(self, node: ast.Raise) -> None:
        msg = _check_message(node)
        if msg is not None:
            self.found.append((".".join(self.scope), msg, None, node))

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            for msg in filter(None, map(_check_message, node.body)):
                for k, operand in enumerate(test.values):
                    self.found.append((".".join(self.scope), msg, k, operand))
        self.generic_visit(node)


def find_sites(src: Path) -> List[Site]:
    sites = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        module = ".".join(rel.with_suffix("").parts)
        finder = _Finder()
        finder.visit(ast.parse(path.read_bytes(), str(rel)))
        sites += [Site((module, fn, msg, k), rel, node) for fn, msg, k, node in finder.found]
    return sites


def disable(source: bytes, site: Site) -> bytes:
    """The source with the site's raise replaced by `pass`, or its operand
    by `False`; AST column offsets count UTF-8 bytes."""
    node = site.node
    text = b"pass" if site.key[3] is None else b"False"
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    line = lines[first][: node.col_offset] + text + lines[last][node.end_col_offset :]
    return b"".join(lines[:first] + [line] + lines[last + 1 :])


def run_tests(tests: List[str], env: Dict[str, str]) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=REPO, env=env, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    entries = json.loads(TABLE.read_text())
    table = {
        (e["module"], e["function"], e["message"], e.get("operand")): e["test"]
        for e in entries
    }
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
            path.write_bytes(disable(original, site))
            try:
                rc = run_tests([test], env)
            finally:
                path.write_bytes(original)
            verdict = {0: "still passes", 1: "fails"}.get(rc, f"exits {rc}")
            where = "" if site.key[3] is None else f" operand {site.key[3]}"
            print(f"{verdict:12} {site.path}:{site.node.lineno}{where} {test}")
            if rc != 1:
                errors.append(f"{test} {verdict} with {site.key} disabled")
    for e in errors:
        print("error:", e, file=sys.stderr)
    operands = sum(s.key[3] is not None for s in sites)
    print(
        f"{len(sites) - operands} sites and {operands} operands"
        f" in {time.perf_counter() - start:.1f} s"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
