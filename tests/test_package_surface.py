"""The package holds what its commands run: every function, class, method
and property in ``src/boundedsum`` is named by code there, and every
import is used or exported.  Strings do not count, so neither ``__all__``
nor a ``getattr`` by name keeps a definition.  The tests' independent
references live in ``tests/reference.py``.  Static checks, stdlib ``ast``
alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted((ROOT / "src" / "boundedsum").glob("*.py"))}

# Kept although no command calls them, each for the reader its docstring
# names.  The tests use these as reference adders and one draw, and the
# benchmark's tracer wraps them by name until it reads a work counter.
TRACED = {"add_float", "add_int", "run_mechanism"}
# The package's way to build a dataset from values, to read the values
# back and to count them, for its callers: commands work on codes.
PUBLIC = {"from_elements", "iter_values", "histogram"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_by_the_package():
    nodes = [node for tree in TREES.values() for node in ast.walk(tree)]
    # only an attribute names a method or a property
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names = attributes | {n.id for n in nodes if isinstance(n, ast.Name)} | {
        a.name for n in nodes if isinstance(n, ast.ImportFrom)
        for a in n.names}
    kept = {}
    for parent in nodes:
        named = attributes if isinstance(parent, ast.ClassDef) else names
        for node in ast.iter_child_nodes(parent):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not _is_dunder(node.name) and node.name not in named):
                kept[node.name] = ast.get_docstring(node) or ""
    assert kept.keys() == TRACED | PUBLIC, sorted(kept)
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    for name, doc in kept.items():
        assert ("tracer" if name in TRACED else "callers") in doc, name
        assert name in PUBLIC or f'"{name}"' in tracer, f"{name} is untraced"


def test_every_import_is_used_or_exported():
    unused = []
    for module, tree in TREES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {c.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "__all__"
                 for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                bound = [a.asname or a.name for a in node.names]
                unused += [f"{module}: {name}" for name in bound
                           if name.partition(".")[0] not in used]
    assert not unused, unused
