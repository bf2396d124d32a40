"""Source hygiene checks: the source checks need only the standard
library; the export check imports each module of the package."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
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


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """Names in ``module.__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_checker_flags_a_stale_export():
    module = types.ModuleType("synthetic")
    exec("__all__ = ['kept', 'deleted']\nkept = 1\n", module.__dict__)
    assert unresolved_exports(module) == ["deleted"]


def test_every_export_in_src_resolves():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    stale = {path.stem: unresolved_exports(
        importlib.import_module(f"fatflat.{path.stem}"))
        for path in modules if path.stem != "__init__"}
    assert {name: names for name, names in stale.items() if names} == {}


PRODUCT_CALLS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot"}


def products_reading(source: str, name: str, owner: str) -> list[int]:
    """Lines of the products (``*``, ``@``, their augmented assignments, or
    a dot, matmul, einsum, inner, tensordot or vdot call) that read
    ``name`` outside the function ``owner``."""
    tree = ast.parse(source)
    inside = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.FunctionDef) and top.name == owner
              for node in ast.walk(top)}
    lines = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        product = (isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, (ast.Mult, ast.MatMult))
                   or isinstance(node, ast.Call) and PRODUCT_CALLS & {
                       getattr(node.func, "id", None),
                       getattr(node.func, "attr", None)})
        if product and any(
                isinstance(n, ast.Name) and n.id == name
                or isinstance(n, ast.Attribute) and n.attr == name
                for n in ast.walk(node)):
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_flags_a_weight_product_outside_its_helper():
    source = ("W = [1.0]\n\n\ndef _sums(v):\n    return v @ W\n\n\n"
              "def f(v):\n    return 2.0 * _sums(v) + v @ W\n\n\n"
              "def g(v, np):\n    v *= W\n"
              "    return np.einsum('ij,j', v, m.W)\n")
    assert products_reading(source, "W", "_sums") == [9, 13, 14]


def gauss_products_outside_panel_sums(name: str) -> dict[str, list[int]]:
    found = {path.name: products_reading(path.read_text(encoding="utf-8"),
                                         name, "_panel_sums")
             for path in sorted(SRC.glob("*.py"))}
    return {file: lines for file, lines in found.items() if lines}


def test_gauss_weights_are_applied_only_in_panel_sums():
    # one BLAS product over a long batch wakes threaded BLAS, whose row
    # split changes the bits; _panel_sums sums in fixed blocks instead
    assert gauss_products_outside_panel_sums("_GL_WEIGHTS") == {}


def test_gauss_nodes_are_built_only_in_panel_sums():
    # the nodes of a whole batch take an (n, 12) array; _panel_sums builds
    # them one fixed block at a time
    assert gauss_products_outside_panel_sums("_GL_NODES") == {}


def array_jets() -> set[str]:
    """Functions and methods of profiles.py that evaluate arrays of radii or
    abscissae: the ones whose names end in ``_many``."""
    tree = ast.parse((SRC / "profiles.py").read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_many")}


def reads_of(source: str, names: set[str]) -> list[str]:
    """'name (line n)' for each read of one of ``names``, by name or as an
    attribute, called or not."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names:
            found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def test_checker_flags_a_read_of_a_named_function():
    source = ("def f(p, rs):\n    jet = p.sigma_tau_many\n"
              "    return rho_many(rs), p._jet_many(rs), p.sigma_tau(1.0)\n")
    assert reads_of(source, {"rho_many", "_jet_many", "sigma_tau_many"}) == [
        "_jet_many (line 3)", "rho_many (line 3)", "sigma_tau_many (line 2)"]


def test_flow_reads_no_array_profile_jet():
    # flow takes sigma and tau from the scalar radial jet alone; numpy's
    # exp, sinh and cosh round differently from math's
    jets = array_jets()
    assert {"_jet_many", "rho_many"} <= jets
    assert reads_of((SRC / "flow.py").read_text(encoding="utf-8"), jets) == []


def test_cli_import_loads_no_scipy():
    # scipy.spatial is most of the CLI's import time; only building a
    # convex body (flats.ConvexBody) imports it
    child = ("import sys\nimport fatflat.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def dependency_floor(pyproject: str, package: str) -> tuple[int, ...]:
    """The version after ``package>=`` in a pyproject text, as integers."""
    found = re.search(rf'"{package}\s*>=\s*([0-9.]+)', pyproject)
    assert found, f"no floor for {package}"
    return tuple(int(part) for part in found.group(1).split("."))


def test_checker_reads_a_dependency_floor():
    text = 'dependencies = [\n    "numpy>=1.24",\n    "scipy >= 1.13",\n]\n'
    assert dependency_floor(text, "numpy") == (1, 24)
    assert dependency_floor(text, "scipy") == (1, 13)


def test_numpy_floor_has_vecdot_and_mT():
    # geometry and flow call np.vecdot and ndarray.mT, new in numpy 2.0
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    assert dependency_floor(pyproject, "numpy") >= (2, 0)
