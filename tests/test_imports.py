"""Every imported name is used: an import a module does not need misleads its reader.

Each .py file under src/, tests/ and demos/ is parsed with ast, and a name
bound by an import statement must be read somewhere in the same file.
Package __init__.py files import names to re-export them and are exempt;
the names altproj exports are pinned, so that a new export is a
deliberate edit of EXPORTED.
"""

import ast
import types
from pathlib import Path

import altproj

ROOT = Path(__file__).resolve().parent.parent
EXPORTED = [
    "AffineSubspace", "Ball", "Box", "ChartApproximateProjector", "ConstraintSystem", "FinitePointSet",
    "FixedRankMatrices", "Halfspace", "Hyperplane", "InclusionProblem", "IterationTrace", "KktCertificate",
    "ManifoldChart", "Monomial", "PolyMap", "Polyhedron", "ProjectableSet", "SolveOptions", "Sphere",
    "angles_from_trace", "check_licq", "check_transversality", "faithful_projection", "fit_rate",
    "linearized_projection", "measure_quadratic_decay", "normal_space_basis", "run_approximate", "run_exact",
    "run_inexact", "set_from_json", "solve_constraint_system", "solve_inclusion", "verify_faithfulness",
]


def unused_imports(source):
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import numpy as np\nimport os.path\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(1, "np"), (3, "pi")]


def test_every_import_is_used():
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []


def test_exported_names_are_pinned():
    exported = sorted(name for name, value in vars(altproj).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == EXPORTED
