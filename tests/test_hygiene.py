"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fatflat"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in ``__all__``
    count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes of ``sources`` (file
    name -> text) that no source reads, by name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name}: {node.name} (line {node.lineno})"
                  for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and node.name not in read)


def test_checker_flags_an_unused_import():
    source = ("import math\nimport os\nfrom typing import List, Tuple\n"
              "__all__ = ['Tuple']\nx: List[int] = [math.pi]\n")
    assert unused_imports(source) == ["os (line 2)"]


def unused_imports_by_file(directory: Path) -> dict[str, list[str]]:
    modules = sorted(directory.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    return {name: names for name, names in found.items() if names}


def test_no_unused_imports_in_src():
    assert not unused_imports_by_file(SRC)


def test_no_unused_imports_in_tests():
    assert not unused_imports_by_file(TESTS)


def test_checker_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n\ndef _stranded():\n"
                 "    return _used()\n\n\nclass _Gone:\n    pass\n"),
        "b.py": "from . import a\nx = a._used\n",
    }
    assert unreferenced_private(sources) == ["a.py: _Gone (line 9)",
                                             "a.py: _stranded (line 5)"]


def test_no_unreferenced_private_definitions_in_src():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert unreferenced_private(sources) == []
