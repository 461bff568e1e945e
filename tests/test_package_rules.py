"""The package's two fixed rules: no floats anywhere, no dependencies outside the
standard library.  Every module under src/minkgeom is parsed and scanned for float
and complex literals, calls to float(), and absolute imports of a top-level module
that is not in sys.stdlib_module_names.  The public names are pinned too:
minkgeom.__all__ lists exactly what __init__ imports from the package, and every
other public top-level function or class is named in another module, and every
private one is named somewhere besides its own definition, so the library holds
no helper that only the tests use or that nothing calls.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import minkgeom

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minkgeom"
MODULES = sorted(PACKAGE.rglob("*.py"))


def foreign(module):
    return module.split(".")[0] not in sys.stdlib_module_names


def violations(source):
    """Sorted (line, description) for each breach of the two rules in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if foreign(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and foreign(node.module):
            found.append((node.lineno, f"from {node.module} import"))
    return sorted(found)


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_the_rules(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_each_rule():
    source = (
        "import numpy.linalg\n"
        "from scipy import optimize\n"
        "from . import qlinalg\n"
        "from fractions import Fraction\n"
        "x = 0.5\n"
        "y = float(Fraction(1, 2))\n"
        "z = 2j\n"
    )
    assert [line for line, _ in violations(source)] == [1, 2, 5, 6, 7]


def test_all_is_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if not alias.name.startswith("_")
    ]
    assert sorted(minkgeom.__all__) == sorted(set(imported))
    assert len(set(minkgeom.__all__)) == len(minkgeom.__all__)
    for name in minkgeom.__all__:
        assert getattr(minkgeom, name) is not None


def names_used(tree):
    """Every identifier a module reads, imports or reaches as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unused_names(sources, exported):
    """Sorted (module, name) for each top-level def or class of the sources that no
    other code names: a public one neither exported nor named in another module,
    a private (_-prefixed) one named nowhere besides its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {module: names_used(tree) for module, tree in trees.items()}
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and not any(
            node.name in names
            for other, names in used.items()
            if other != module or node.name.startswith("_")
        )
    )


def test_every_public_name_is_exported_or_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = set(re.findall(r'"minkgeom\.\w+:(\w+)"', pyproject))  # console-script entry points
    assert scripts == {"main"}
    assert unused_names(sources, set(minkgeom.__all__) | scripts) == []


def test_scanner_flags_an_unused_public_name():
    sources = {
        "a": "def exported(): pass\ndef used(): pass\ndef unused(): used()\nclass _Private: pass\n",
        "b": "from .a import used\ndef _helper(): pass\nprint(_helper)\n",
        "c": "from . import a\nclass Spare: pass\nprint(a.used)\n",
    }
    assert unused_names(sources, {"exported"}) == [("a", "_Private"), ("a", "unused"), ("c", "Spare")]
