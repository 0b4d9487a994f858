"""Every function, class and method in src/semispec is reached from a
command, an acceptance check, module-level code or the benchmark.

The scan is by name over the parsed source, so it over-approximates: a name
reaches every definition that carries it. The one exception is a call
`self.m(...)` inside a method of class C: it reaches only the `m` defined
in C or in a class C inherits from or that inherits from C (bases matched
by name), and falls back to the by-name rule when none of them defines m.

Roots are the module-level statements of every module (the `__main__` block
of cli.py, the criterion table of accept.py, constants), the console-script
entry point and every file under perfbench/. Inside src/semispec,
`from .x import f` is not a use of f (the call is), except in `__init__.py`,
whose imports are the public API.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semispec"
PERFBENCH = ROOT / "perfbench"

ENTRY_POINTS = {"cli.main"}  # [project.scripts] in pyproject.toml

# Kept only as test oracles: the polynomial-level product that
# test_bx_mul_matches_table_poly compares localize.bx_mul against.
ORACLES = {
    "poly.bool_poly",
    "poly.bool_poly_mul",
    "poly.bool_poly_from_mask",
    "poly.bool_poly_to_mask",
}

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(src):
    """qualified name -> (node, is method); plus the per-module trees."""
    defs, trees = {}, {}
    for path in sorted(src.glob("*.py")):
        mod = path.stem
        tree = trees[mod] = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, DEF_NODES):
                defs[f"{mod}.{node.name}"] = (node, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEF_NODES):
                        defs[f"{mod}.{node.name}.{item.name}"] = (item, True)
    return defs, trees


def _lineage(defs):
    """class -> the classes it inherits from or that inherit from it, itself
    included; a base is matched by name to every class that carries it."""
    by_name = {}
    for q, (node, is_method) in defs.items():
        if isinstance(node, ast.ClassDef) and not is_method:
            by_name.setdefault(node.name, set()).add(q)
    up = {}

    def ancestors(q):
        if q not in up:
            up[q] = {q}
            for base in defs[q][0].bases:
                if isinstance(base, ast.Name):
                    for b in by_name.get(base.id, ()):
                        up[q] |= ancestors(b)
        return up[q]

    classes = set().union(*by_name.values())
    return {q: {c for c in classes if q in ancestors(c) or c in ancestors(q)} for q in classes}


def _names_used(nodes, imports_count, owner=None):
    """(plain names, attribute names, self-calls) referenced anywhere under
    nodes; a self-call is (owner, m) for `self.m(...)` in a method of owner."""
    plain, attrs, self_calls, seen = set(), set(), set(), set()
    for top in nodes:
        for node in ast.walk(top):  # breadth first: a call before its callee
            if (
                owner
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                self_calls.add((owner, node.func.attr))
                seen.add(id(node.func))
            elif isinstance(node, ast.Name):
                plain.add(node.id)
            elif isinstance(node, ast.Attribute) and id(node) not in seen:
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and imports_count:
                plain.update(a.name for a in node.names)
    return plain, attrs, self_calls


def unreached(src=SRC):
    defs, trees = _definitions(src)
    lineage = _lineage(defs)
    names, attrs, self_calls = set(), set(), set()

    def use(nodes, imports_count=False, owner=None):
        plain, dotted, calls = _names_used(nodes, imports_count, owner)
        names.update(plain)
        attrs.update(dotted)
        for cls, m in calls:
            if any(f"{c}.{m}" in defs for c in lineage[cls]):
                self_calls.add((cls, m))
            else:
                attrs.add(m)

    for mod, tree in trees.items():
        use([s for s in tree.body if not isinstance(s, DEF_NODES)], mod == "__init__")
    for path in sorted(PERFBENCH.glob("*.py")):
        use([ast.parse(path.read_text(encoding="utf-8"))], True)

    # a top-level definition is reached by its name; a method only once its
    # class is reached, dunders at once and others by attribute access or by
    # a self-call from a method of a related class
    reached = set()
    grew = True
    while grew:
        grew = False
        for q, (node, is_method) in defs.items():
            if q in reached:
                continue
            cls = q.rsplit(".", 1)[0]
            if is_method:
                ok = cls in reached and (
                    _is_dunder(node.name)
                    or node.name in attrs
                    or any((c, node.name) in self_calls for c in lineage[cls])
                )
            else:
                ok = q in ENTRY_POINTS or node.name in names or node.name in attrs
            if not ok:
                continue
            reached.add(q)
            grew = True
            if isinstance(node, ast.ClassDef):
                body = [s for s in node.body if not isinstance(s, DEF_NODES)]
                use(body + node.decorator_list + node.bases)
            else:
                use([node], owner=cls if is_method else None)
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    assert set(unreached()) == ORACLES


def test_the_scan_sees_a_dead_function(tmp_path):
    """A definition nothing calls is reported; calling it from a root clears it."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "kernel.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _never_called():\n    return 0\n")
    assert "kernel._never_called" in unreached(tmp_path)
    with open(tmp_path / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nDEBUG = _never_called\n")
    assert "kernel._never_called" not in unreached(tmp_path)


def test_a_self_call_reaches_only_its_own_class(tmp_path):
    """`self.step()` in _Live reaches _Live.step and the override in its
    subclass _Kid, not the step of an unrelated class; an attribute access
    elsewhere still reaches it."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "probe.py").write_text(
        "class _Live:\n"
        "    def run(self):\n"
        "        return self.step()\n\n"
        "    def step(self):\n"
        "        return 0\n\n\n"
        "class _Kid(_Live):\n"
        "    def step(self):\n"
        "        return 2\n\n\n"
        "class _Dead:\n"
        "    def step(self):\n"
        "        return 1\n\n\n"
        "PROBE = (_Live().run(), _Kid, _Dead)\n",
        encoding="utf-8",
    )
    dead = unreached(tmp_path)
    assert "probe._Dead.step" in dead
    assert "probe._Live.step" not in dead
    assert "probe._Kid.step" not in dead
    with open(tmp_path / "probe.py", "a", encoding="utf-8") as fh:
        fh.write("STEP = _Dead().step\n")
    assert "probe._Dead.step" not in unreached(tmp_path)
