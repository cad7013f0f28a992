"""Module boundaries inside the package: no module uses another's private names,
none imports a name it never reads, and every function the benchmark traces
exists.

Each module under ``src/fracvar`` is parsed with ``ast``. A module may not
import an underscore name from another package module, and ``obj._name`` is
allowed only where ``_name`` is bound or assigned in the same module (or the
object is ``self``/``cls``). Dunder names are not private. Every imported
name must be read somewhere in its module; ``__init__.py`` is exempt, since
its imports are the package's re-exports. The files under ``tests`` keep the
same rule, so none still imports a helper that a change removed.
``perfbench/tracer.py`` names the functions it wraps in ``TARGETS``; the
tests here do not run the benchmark, so a renamed function would otherwise
break it unnoticed. No module calls or imports ``savetxt``:
``grid.write_csv`` is the one CSV writer, and no module but ``grid`` reads
``CSV_FLOAT_FORMAT`` or uses ``hashlib``, so the number format and the file
digests each have one owner. No module imports
scipy, which ``pyproject.toml`` lists only as a test extra, and no module
but ``fracops`` uses ``numpy.fft``, so every FFT product has one owner. Every name in
``fracvar.__all__`` exists, and every name ``__init__.py`` imports is
listed; every name in the ``__all__`` of ``fracops`` and ``grunwald`` exists.
``optctrl`` imports the costate residual and the conserved-quantity formula
that the variational forms use, and calls none of their building blocks, so
neither formula is written twice; one ``optctrl`` function alone calls the
cost and dynamics partials, so the partials of H are written once too.
``noether`` calls no right RL derivative (its Euler-Lagrange terms come from
the costate residual), and ``friction`` imports neither the Caputo nor the
difference operator (its fields come from ``variational.along``). No module
but ``grid`` compares a ``.grid`` attribute with ``==`` or ``!=`` or raises
``GridMismatchError``: the others reject inputs through ``grid.require_on``
and ``grid.require_dim``. No module but ``lagrangian`` calls
``LagrangianSpec``: the others build Lagrangians through its families, so
``friction`` writes its model through ``lagrangian.particle_lagrangian``.
Every private function, method and class defined under ``src/fracvar`` is
read somewhere in the package outside its own definition, so no helper
outlives its last caller.
"""

import ast
import importlib
import pathlib
from types import SimpleNamespace

import pytest

import fracvar

MODULES = sorted(pathlib.Path(fracvar.__file__).resolve().parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _bound_names(tree: ast.AST) -> set:
    """Names the module defines, assigns (also as attributes), takes as parameters or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def violations(source: str, module: str) -> list:
    """One line per cross-module private import or private attribute access."""
    tree = ast.parse(source)
    bound = _bound_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "fracvar":
                found += [
                    f"{module}:{node.lineno} imports {alias.name} from {node.module}"
                    for alias in node.names
                    if _private(alias.name)
                ]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in bound:
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                found.append(f"{module}:{node.lineno} reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []


def test_checker_flags_each_pattern():
    source = (
        "from .grid import _x, Grid\n"
        "from .variational import el_residual as _alias\n"
        "class A:\n"
        "    def f(self, problem, other):\n"
        "        self._own = 1\n"
        "        problem._check_trajectory(other)\n"
        "        other._own\n"
        "        return cls._anything, other.__class__, _alias\n"
    )
    assert violations(source, "m.py") == [
        "m.py:1 imports _x from grid",
        "m.py:6 reads problem._check_trajectory",
    ]


def unused_imports(source: str, module: str) -> list:
    """One line per imported name that the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{module}:{node.lineno} imports {name} unused")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES + TESTS if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_unused_import_checker_flags_each_pattern():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .grid import Grid, trapezoid\n"
        "from .errors import NumericsError as Failure\n"
        "def f(g: Grid):\n"
        "    return np.zeros(1), os.path\n"
    )
    assert unused_imports(source, "m.py") == [
        "m.py:4 imports trapezoid unused",
        "m.py:5 imports Failure unused",
    ]


def _referenced_name(node: ast.AST):
    """The name a read, an attribute or an import alias refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def csv_writer_uses(source: str, module: str) -> list:
    """One line per ``savetxt`` the module reads or imports and, outside
    ``grid.py``, per ``CSV_FLOAT_FORMAT`` and per use or import of
    ``hashlib`` (the digests come from ``write_csv``); text in strings is
    not code."""
    names = ("savetxt",) if module == "grid.py" else ("savetxt", "CSV_FLOAT_FORMAT", "hashlib")
    found = sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if (name := _referenced_name(node)) in names
        or isinstance(node, ast.ImportFrom) and (name := node.module) in names
    )
    return [f"{module}:{line} uses {name}" for line, name in found]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_write_csv_is_the_only_csv_writer(path):
    assert csv_writer_uses(path.read_text(encoding="utf-8"), path.name) == []


def test_savetxt_checker_flags_each_pattern():
    source = (
        '"""Bytes as np.savetxt(path, x) would write them, in CSV_FLOAT_FORMAT."""\n'
        "import numpy as np\n"
        "from numpy import savetxt as save\n"
        "np.savetxt('a.csv', np.zeros(2))\n"
        "writer = np.savetxt\n"
        "savetxt('b.csv', [])\n"
        "from .grid import CSV_FLOAT_FORMAT as fmt\n"
        "text = grid.CSV_FLOAT_FORMAT % 1.0\n"
        "CSV_FLOAT_FORMAT = '%.6g'\n"
        "import hashlib\n"
        "from hashlib import sha256\n"
        "digest = hashlib.sha256(b'')  # hashlib in a comment is no use\n"
    )
    assert csv_writer_uses(source, "m.py") == [
        "m.py:3 uses savetxt",
        "m.py:4 uses savetxt",
        "m.py:5 uses savetxt",
        "m.py:6 uses savetxt",
        "m.py:7 uses CSV_FLOAT_FORMAT",
        "m.py:8 uses CSV_FLOAT_FORMAT",
        "m.py:9 uses CSV_FLOAT_FORMAT",
        "m.py:10 uses hashlib",
        "m.py:11 uses hashlib",
        "m.py:12 uses hashlib",
    ]
    assert csv_writer_uses(source, "grid.py") == [
        f"grid.py:{line} uses savetxt" for line in (3, 4, 5, 6)
    ]


def scipy_imports(source: str, module: str) -> list:
    """One line per import of scipy or of one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [
            f"{module}:{node.lineno} imports {name}"
            for name in names
            if name.split(".")[0] == "scipy"
        ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text(encoding="utf-8"), path.name) == []


def test_scipy_checker_flags_each_pattern():
    source = (
        '"""Unlike scipy.linalg.cho_solve, numpy has no triangular solve."""\n'
        "import numpy as np, scipy\n"
        "import scipy.linalg as sla\n"
        "from scipy.linalg import cho_solve, solve_triangular\n"
        "from .scipy import helper\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy import sparse\n"
    )
    assert scipy_imports(source, "m.py") == [
        "m.py:2 imports scipy",
        "m.py:3 imports scipy.linalg",
        "m.py:4 imports scipy.linalg",
        "m.py:8 imports scipy",
    ]


def fft_uses(source: str, module: str) -> list:
    """One line per use of numpy's FFT outside ``fracops.py``: an import of
    ``numpy.fft`` or of ``fft`` from numpy, and ``fft`` read off a name that
    an ``import numpy`` binds."""
    if module == "fracops.py":
        return []
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or "numpy"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"numpy.{node.attr}"] if node.value.id in numpy_names else []
        else:
            continue
        if any(name.split(".")[:2] == ["numpy", "fft"] for name in names):
            found.append(node.lineno)
    return [f"{module}:{line} uses numpy.fft" for line in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fracops_uses_fft(path):
    assert fft_uses(path.read_text(encoding="utf-8"), path.name) == []


def test_fft_checker_flags_each_pattern():
    source = (
        '"""np.fft.rfft in a docstring is text."""\n'
        "import numpy as np\n"
        "import numpy.fft\n"
        "import numpy.fft as nfft\n"
        "from numpy import fft, pi\n"
        "from numpy.fft import rfft\n"
        "spectrum = np.fft.rfft(x)\n"
        "inverse = numpy.fft.irfft\n"
        "scheme.fft(x)  # fft off a name that is not numpy\n"
        "from numpy import linalg\n"
        "import numpyx as np2\n"
        "np2.fft(x)\n"
    )
    assert fft_uses(source, "m.py") == [f"m.py:{line} uses numpy.fft" for line in range(3, 9)]
    assert fft_uses(source, "fracops.py") == []


TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def missing_targets(source: str) -> list:
    """One line per name in the ``TARGETS`` literal that its module lacks."""
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    return [
        f"{module}.{name} is missing"
        for module, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]


def test_traced_functions_exist():
    assert missing_targets(TRACER.read_text(encoding="utf-8")) == []


def test_traced_function_checker_flags_a_missing_name():
    source = 'TARGETS = {"fracvar.minimize": ("bfgs_minimize", "no_such_solver")}\n'
    assert missing_targets(source) == ["fracvar.minimize.no_such_solver is missing"]


def _listed(tree: ast.Module) -> list:
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
    ]
    return listed


def missing_exports(source: str, module) -> list:
    """One line per ``__all__`` name that ``module`` lacks."""
    listed = _listed(ast.parse(source))
    return [f"{name} is listed but missing" for name in listed if not hasattr(module, name)]


def export_mismatches(source: str, package) -> list:
    """:func:`missing_exports`, then one line per name the source imports at
    top level that ``__all__`` does not list."""
    tree = ast.parse(source)
    listed = _listed(tree)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    return missing_exports(source, package) + [
        f"{name} is imported but not listed" for name in imported if name not in listed
    ]


def test_package_exports_match_imports():
    init = pathlib.Path(fracvar.__file__).read_text(encoding="utf-8")
    assert export_mismatches(init, fracvar) == []


@pytest.mark.parametrize("name", ["fracops", "grunwald"])
def test_operator_module_exports_exist(name):
    module = importlib.import_module(f"fracvar.{name}")
    assert missing_exports(pathlib.Path(module.__file__).read_text(encoding="utf-8"), module) == []


def test_missing_export_checker_flags_a_removed_name():
    source = '__all__ = ["caputo_left", "central_difference_matrix"]\n'
    module = SimpleNamespace(caputo_left=1)
    assert missing_exports(source, module) == ["central_difference_matrix is listed but missing"]


def test_export_checker_flags_each_pattern():
    source = (
        "from __future__ import annotations\n"
        "from .grid import Grid, GridFunction\n"
        "from .noether import drift_report as report\n"
        '__all__ = ["Grid", "report", "Removed"]\n'
    )
    package = SimpleNamespace(Grid=1, GridFunction=2, report=3)
    assert export_mismatches(source, package) == [
        "Removed is listed but missing",
        "GridFunction is imported but not listed",
    ]


#: what keeps each shared formula written once, per module: the formulas it
#: imports from the module that writes them, the building blocks it may
#: neither call nor import, and the callables that one function alone calls
FORMULA_RULES = {
    "optctrl.py": {
        "imports": {"costate_residual": "variational", "momentum_quantity": "noether"},
        "no_calls": ("series_terms", "rl_derivative_right"),
        "owned": (
            "_hamiltonian_partials",
            ("cost_dq", "cost_du", "cost_dmu", "velocity_dq", "velocity_du")
            + ("frac_velocity_dq", "frac_velocity_dmu"),
        ),
    },
    "noether.py": {"no_calls": ("rl_derivative_right",)},
    "friction.py": {"no_imports": ("caputo_left", "central_difference")},
}


def formula_copies(source: str, module: str, rules: dict) -> list:
    """One line per shared formula the module does not import from its
    module, then, in line order, one per forbidden import, per call of a
    building block and per call of an owned callable outside its owner."""
    tree = ast.parse(source)
    imported = {
        (alias.name, (node.module or "").split(".")[-1])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = [
        f"{module} does not import {name} from {home}"
        for name, home in rules.get("imports", {}).items()
        if (name, home) not in imported
    ]
    owner, owned = rules.get("owned", ("", ()))
    lines = []
    for node, functions in _scoped_nodes(tree):
        if isinstance(node, ast.ImportFrom):
            lines += [
                (node.lineno, f"imports {alias.name}")
                for alias in node.names
                if alias.name in rules.get("no_imports", ())
            ]
        elif isinstance(node, ast.Call) and _callee(node) in rules.get("no_calls", ()):
            lines.append((node.lineno, f"calls {_callee(node)}"))
        elif isinstance(node, ast.Call) and _callee(node) in owned and owner not in functions:
            lines.append((node.lineno, f"calls {_callee(node)} outside {owner}"))
    return found + [f"{module}:{line} {what}" for line, what in sorted(lines)]


def _scoped_nodes(node: ast.AST, functions: tuple = ()):
    """Every node below ``node``, with the names of the functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield child, functions
        inner = functions + (child.name,) if isinstance(child, ast.FunctionDef) else functions
        yield from _scoped_nodes(child, inner)


def _callee(call: ast.Call) -> str:
    """The called name: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", ""))


def _module_source(name: str) -> str:
    return next(p for p in MODULES if p.name == name).read_text(encoding="utf-8")


def test_control_forms_call_the_shared_formulas():
    rules = FORMULA_RULES["optctrl.py"]
    assert formula_copies(_module_source("optctrl.py"), "optctrl.py", rules) == []


@pytest.mark.parametrize("name", ["noether.py", "friction.py"])
def test_shared_formulas_are_not_rebuilt(name):
    assert formula_copies(_module_source(name), name, FORMULA_RULES[name]) == []


def test_formula_copy_checker_flags_each_pattern():
    source = (
        "from .noether import momentum_quantity as quantity, series_terms\n"
        "from .grid import costate_residual, central_difference\n"
        "from . import fracops\n"
        "def f(g, p):\n"
        "    terms = series_terms(g, p)\n"
        "    return fracops.rl_derivative_right(p, 0.5), quantity(terms), g[0](p)\n"
        "def partials(cp, t):\n"
        "    def plus(x):\n"
        "        return x + cp.velocity_dq(t)\n"
        "    return plus(cp.cost_dq(t)), getattr(cp, 'cost_du')\n"
        "def residual(cp, t):\n"
        "    return cp.cost_dq(t) + cp.cost_du(t) + cp.velocity(t)\n"
    )
    rules = {
        "imports": {"costate_residual": "variational", "momentum_quantity": "noether"},
        "no_calls": ("series_terms", "rl_derivative_right"),
        "no_imports": ("central_difference",),
        "owned": ("partials", ("cost_dq", "cost_du", "velocity_dq")),
    }
    assert formula_copies(source, "m.py", rules) == [
        "m.py does not import costate_residual from variational",
        "m.py:2 imports central_difference",
        "m.py:5 calls series_terms",
        "m.py:6 calls rl_derivative_right",
        "m.py:12 calls cost_dq outside partials",
        "m.py:12 calls cost_du outside partials",
    ]


def grid_checks(source: str, module: str) -> list:
    """One line per ``==``/``!=`` comparison with a ``.grid`` operand and per
    raise of ``GridMismatchError``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr == "grid" for x in operands):
                found.append((node.lineno, "compares grids"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", "")) == "GridMismatchError":
                found.append((node.lineno, "raises GridMismatchError"))
    return [f"{module}:{line} {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_grid_checks_grids(path):
    assert grid_checks(path.read_text(encoding="utf-8"), path.name) == []


def test_grid_check_checker_flags_each_pattern():
    source = (
        "from . import errors\n"
        "def f(q, problem, fp):\n"
        "    if q.grid != problem.grid or q.dim != problem.dim:\n"
        "        raise GridMismatchError('variation')\n"
        "    if fp.window == q.grid:\n"
        "        raise errors.GridMismatchError\n"
        "    if q.grid is fp.window or q.grids == fp.grids or q.grid < fp.window:\n"
        "        raise ValueError('grid')\n"
        "    return 'q.grid != g.grid'\n"
    )
    assert grid_checks(source, "m.py") == [
        "m.py:3 compares grids",
        "m.py:4 raises GridMismatchError",
        "m.py:5 compares grids",
        "m.py:6 raises GridMismatchError",
    ]


def spec_constructions(source: str, module: str) -> list:
    """One line per call of ``LagrangianSpec``, in line order; text in strings is not code."""
    lines = sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _callee(node) == "LagrangianSpec"
    )
    return [f"{module}:{line} calls LagrangianSpec" for line in lines]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "lagrangian.py"], ids=lambda p: p.name
)
def test_only_lagrangian_builds_lagrangians(path):
    assert spec_constructions(path.read_text(encoding="utf-8"), path.name) == []


def test_lagrangian_construction_checker_flags_each_pattern():
    source = (
        '"""LagrangianSpec(dim=1, evaluate=f) in a docstring."""\n'
        "from .lagrangian import LagrangianSpec\n"
        "from . import lagrangian\n"
        "def f(u) -> LagrangianSpec:\n"
        "    spec = LagrangianSpec(1, u)\n"
        "    return lagrangian.LagrangianSpec(dim=1, evaluate=u), spec\n"
    )
    assert spec_constructions(source, "m.py") == [
        "m.py:5 calls LagrangianSpec",
        "m.py:6 calls LagrangianSpec",
    ]


def uncalled_private_definitions(sources: dict) -> list:
    """One line per ``_``-prefixed function, method or class (dunders are
    not private) that no module of ``sources`` (name -> source) reads as a
    name, an attribute or an import outside the definition itself; text in
    strings is not code. In module, then line order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [
        (module, name, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (name := _referenced_name(node))
    ]
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and _private(node.name)
            ):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (other != module or line not in inside)
                for other, name, line in reads
            ):
                found.append((module, node.lineno, node.name))
    return [f"{module}:{line} defines {name}, which nothing calls" for module, line, name in sorted(found)]


def test_every_private_definition_has_a_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert uncalled_private_definitions(sources) == []


def test_uncalled_private_checker_flags_each_pattern():
    sources = {
        "a.py": (
            '"""_unused in a docstring is text."""\n'
            "def _used():\n"
            "    return _Kept()\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1) if k else 0\n"
            "class _Kept:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 1\n"
            "    def __repr__(self):\n"
            "        return '_method'\n"
            "def _unused():\n"
            "    pass\n"
        ),
        "b.py": "from .a import _used\n_used()\n",
    }
    assert uncalled_private_definitions(sources) == [
        "a.py:4 defines _recursive, which nothing calls",
        "a.py:7 defines _method, which nothing calls",
        "a.py:13 defines _unused, which nothing calls",
    ]
