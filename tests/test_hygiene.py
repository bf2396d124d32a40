"""Source hygiene checks: the source checks need only the standard
library; the export check imports each module of the package, and the
exp-count check runs the ramp's radial jet."""

import ast
import importlib
import math
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


def shared_definitions(sources: dict[str, str]) -> dict[str, list[str]]:
    """Module-level function and class names that more than one of
    ``sources`` (file name -> text) defines, each with those files."""
    owners: dict[str, list[str]] = {}
    for name, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, []).append(name)
    return {defined: files for defined, files in sorted(owners.items())
            if len(set(files)) > 1}


def test_checker_flags_a_name_defined_in_two_modules():
    sources = {
        "a.py": "def _gram():\n    pass\n\n\nclass Only:\n    pass\n",
        "b.py": ("def _gram():\n    pass\n\n\ndef outer():\n"
                 "    def only():\n        pass\n"),
        "c.py": "class outer:\n    def only(self):\n        pass\n",
    }
    assert shared_definitions(sources) == {"_gram": ["a.py", "b.py"],
                                           "outer": ["b.py", "c.py"]}


def test_each_src_definition_has_one_module():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert shared_definitions(sources) == {}


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


PRODUCT_CALLS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot",
                 "vecdot"}


def matrix_products(source: str) -> list[int]:
    """Lines of the matrix products in a source: ``@``, ``@=``, and calls
    named dot, matmul, einsum, inner, tensordot, vdot or vecdot."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and PRODUCT_CALLS & {
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)}):
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_flags_a_matrix_product():
    source = ("def f(v, w, np):\n    x = v * w\n    x @= w\n"
              "    return np.einsum('ij,j', v, x) + v @ w + dot(v, w)\n"
              "def g(v, np):\n    return np.vecdot(v, v)\n")
    assert matrix_products(source) == [3, 4, 6]


def test_profiles_forms_no_matrix_product():
    # a BLAS product over a long batch splits its rows across worker
    # threads, and the split moves the last bit of some sums; the panel
    # table and both profile jets take elementwise sums and products only
    source = (SRC / "profiles.py").read_text(encoding="utf-8")
    assert matrix_products(source) == []


def test_riccati_stage_forms_no_matrix_product():
    # numpy sends even a 2 x 2 U U to BLAS, and OpenBLAS picks its kernel
    # for the CPU at load time: Haswell's and later ones round a sum of
    # products through fused multiply-adds and Nehalem's does not, so the
    # last bits of U would depend on the machine; M and U U take plain
    # float sums and products only
    source = (SRC / "flow.py").read_text(encoding="utf-8")
    stage = [ast.get_source_segment(source, node)
             for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name in {
                 "riccati_expansion", "_curvature", "_adapted_parts",
                 "_square"}]
    assert len(stage) == 4
    assert [matrix_products(segment) for segment in stage] == [[]] * 4


def test_flow_metric_helpers_form_no_matrix_product():
    # the Gram matrices and the Riccati start frame take flow's own
    # plain-float adapted parts and dot products from 0.0, for the reason
    # above; with no numpy arithmetic left, no errstate block either
    source = (SRC / "flow.py").read_text(encoding="utf-8")
    helpers = [ast.get_source_segment(source, node)
               for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)
               and node.name in {"_scales", "_gram", "_normal_frame"}]
    assert len(helpers) == 3
    assert [matrix_products(segment) for segment in helpers] == [[]] * 3
    assert not [segment for segment in helpers if "errstate" in segment]
    assert "_adapted_vectors" not in source


def test_curvature_scan_route_forms_no_matrix_product():
    # the scans and flow share geometry's adapted parts and curvature
    # numerator, and take every sum over a vector's few components as a
    # _dot from 0.0 over columns of the batch, for the reason above: the
    # same bits under every BLAS kernel, and the same as flow's floats
    source = (SRC / "geometry.py").read_text(encoding="utf-8")
    names = {"radius_of", "_adapted_vectors", "_plane_curvatures",
             "adapted_components_raw", "curvature_numerator", "_scan_block"}
    route = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.name in names]
    assert sorted(node.name for node in route) == sorted(names)
    segments = [ast.get_source_segment(source, node) for node in route]
    assert [matrix_products(segment) for segment in segments] == [[]] * 6
    assert not [node for node in route for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr == "mT"]


def test_diagonal_christoffel_forms_no_matrix_product(monkeypatch):
    # a polar chart's Gamma has three nonzero entries per nonzero
    # d_k g_ii, each a plain float product; riemann_fd takes Gamma at the
    # point and at four stencil points per coordinate, each through the
    # module's name, where a tracer wrapping geometry.christoffel counts it
    np = importlib.import_module("numpy")
    geometry = importlib.import_module("fatflat.geometry")
    profile = importlib.import_module("fatflat.profiles").WarpingProfile
    products = []
    for name in ("einsum", "matmul"):
        def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
            products.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    ramp = profile.interpolated(19.0)
    charts = [geometry.MetricChart.polar(ramp, n) for n in (1, 2, 3)]
    charts.append(geometry.MetricChart.four_d_model(ramp))
    for chart in charts:
        geometry.christoffel(chart.point([12.0] + [1.0] * (chart.dim - 1)))
    assert products == []
    source = (SRC / "geometry.py").read_text(encoding="utf-8")
    route = [ast.get_source_segment(source, node)
             for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)
             and node.name in {"_diag_christoffel", "_diag_factor_jets"}]
    assert [matrix_products(segment) for segment in route] == [[], []]

    christoffel, points = geometry.christoffel, []

    def traced(point):
        points.append(point)
        return christoffel(point)

    monkeypatch.setattr(geometry, "christoffel", traced)
    geometry.riemann_fd(charts[-1].point([12.0, 1.0, 0.5, 0.0]))
    assert len(points) == 17


def math_calls(function, *args) -> dict[str, int]:
    """{name: count} of the math module's functions that function(*args)
    calls, from the interpreter's profile events for C calls."""
    counts: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__module__", None) == "math":
            counts[arg.__name__] = counts.get(arg.__name__, 0) + 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return counts


def test_checker_counts_math_calls():
    def twice(x):
        exp = math.exp
        return exp(x) + exp(-x) + math.sinh(x) + abs(x) + len(str(x))

    assert math_calls(twice, 0.5) == {"exp": 2, "sinh": 1}


def test_ramp_jet_calls_exp_once():
    # the bump's own exp, and sinh r, sinh(r/2) and cosh r for the blend;
    # the step integral F is one polynomial per panel and calls none
    profiles = importlib.import_module("fatflat.profiles")
    profile = profiles.WarpingProfile.interpolated(19.0)
    profile.jet(20.0)  # builds the panel table and binds the jet
    for r in (0.5, 12.0, 20.0, 30.0):
        assert math_calls(profile.jet, r) == {"exp": 1, "sinh": 2,
                                              "cosh": 1}, r


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
    # src/ no longer calls np.vecdot or ndarray.mT; the floor stays at 2.0,
    # as every frozen bit pattern in tests/ and every byte-identical report
    # is checked under numpy 2's scalar promotion rules (NEP 50) only
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    assert dependency_floor(pyproject, "numpy") >= (2, 0)
