"""Structure rules over the package source, checked on its syntax tree."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = "polarpunct"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """Single-underscore names a module reads from other package modules.

    Covers ``from .mod import _name`` and ``mod._name`` on a module bound by
    ``from . import mod``; dunders are exempt.
    """
    tree = ast.parse(source)
    modules = {}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = ".".join(filter(None, [PACKAGE, node.module]))
        elif node.module and node.module.split(".")[0] == PACKAGE:
            base = node.module
        else:
            continue
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{base}.{alias.name}")
            if base == PACKAGE:
                modules[alias.asname or alias.name] = f"{base}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reach_in(path):
    assert private_reads(path.read_text()) == []


def test_reach_in_is_detected():
    source = (
        "from . import codec as c, sim\n"
        "from .construct import _popcount, __doc__\n"
        "from polarpunct.codec import _boxplus\n"
        "m = c._crc_matrix(8, None)\n"
        "v = sim.__version__\n"
        "import numpy as np\n"
        "np._private\n"
    )
    assert sorted(private_reads(source)) == [
        "polarpunct.codec._boxplus", "polarpunct.codec._crc_matrix",
        "polarpunct.construct._popcount"]


# numpy's SIMD ufuncs differ from libm in the last bit on part of their domain (numpy 2.4,
# x86_64: 5.3% of x**0.86 on (0, 10), 4.6% of exp, 0.4% of log1p(-10/(7x)), 0.06% of log).
# GA must stay bit-identical to the scalar construction, so construct.py maps libm instead.
NUMPY_TRANSCENDENTALS = {"power", "exp", "log", "log1p", "expm1", "log2", "log10"}


def numpy_transcendentals(source: str) -> list[str]:
    """numpy transcendental ufuncs a module names: ``np.exp`` and ``from numpy import exp``."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    found = [f"numpy.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for alias in node.names if alias.name in NUMPY_TRANSCENDENTALS]
    found += [f"numpy.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr in NUMPY_TRANSCENDENTALS]
    return found


def test_construct_uses_libm_transcendentals():
    assert numpy_transcendentals((SRC / "construct.py").read_text()) == []


def test_numpy_transcendental_is_detected():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from numpy import log1p, sqrt\n"
        "y = np.power(x, 0.86) + np.sqrt(x) + math.exp(1.0)\n"
        "z = list(map(np.log, x))\n"
    )
    assert sorted(numpy_transcendentals(source)) == ["numpy.log", "numpy.log1p", "numpy.power"]


def test_import_loads_no_scipy():
    code = ("import sys, polarpunct; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"
