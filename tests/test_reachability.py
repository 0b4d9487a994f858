"""Every function, class and method in src/semispec is reached from a
command, an acceptance check, module-level code or the benchmark.

The scan is by name over the parsed source, so it over-approximates: a name
reaches every definition that carries it. Roots are the module-level
statements of every module (the `__main__` block of cli.py, the criterion
table of accept.py, constants), the console-script entry point and every
file under perfbench/. Inside src/semispec, `from .x import f` is not a use
of f (the call is), except in `__init__.py`, whose imports are the public
API.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semispec"
PERFBENCH = ROOT / "perfbench"

ENTRY_POINTS = {"cli.main"}  # [project.scripts] in pyproject.toml

# Kept only as test oracles: the polynomial-level product that
# test_bx_mul_matches_table_poly compares core.bx_mul against.
ORACLES = {"poly.bool_poly", "poly.bool_poly_mul", "poly.bool_poly_from_mask"}

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


def _names_used(nodes, imports_count):
    """(plain names, attribute names) referenced anywhere under nodes."""
    plain, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                plain.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and imports_count:
                plain.update(a.name for a in node.names)
    return plain, attrs


def unreached(src=SRC):
    defs, trees = _definitions(src)
    names, attrs = set(), set()

    def use(nodes, imports_count=False):
        plain, dotted = _names_used(nodes, imports_count)
        names.update(plain)
        attrs.update(dotted)

    for mod, tree in trees.items():
        use([s for s in tree.body if not isinstance(s, DEF_NODES)], mod == "__init__")
    for path in sorted(PERFBENCH.glob("*.py")):
        use([ast.parse(path.read_text(encoding="utf-8"))], True)

    # a top-level definition is reached by its name; a method only once its
    # class is reached, dunders at once and others by attribute access
    reached = set()
    grew = True
    while grew:
        grew = False
        for q, (node, is_method) in defs.items():
            if q in reached:
                continue
            if is_method:
                ok = q.rsplit(".", 1)[0] in reached and (
                    _is_dunder(node.name) or node.name in attrs
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
                use([node])
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
