"""Every module-level import in the package is used, and importing the
command line does no work: no basis and no map exists until a command
runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import syzygy

PACKAGE = Path(syzygy.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    # __init__.py imports only to re-export
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not found, found


_FRESH_IMPORT = """
import gc, json, sys
import syzygy.cli
from syzygy.reps import RepMap, RepSpace
sizes = {}
for name, module in list(sys.modules.items()):
    for value in vars(module).values() if name.startswith("syzygy") else ():
        for fn in ([getattr(v, "__func__", v) for v in vars(value).values()]
                   if isinstance(value, type) else [value]):
            if hasattr(fn, "cache_info"):
                sizes[f"{fn.__module__}.{fn.__qualname__}"] = fn.cache_info().currsize
built = sum(isinstance(o, (RepSpace, RepMap)) for o in gc.get_objects())
print(json.dumps([sizes, built]))
"""


def test_importing_the_cli_builds_no_basis_and_no_map():
    # a fresh interpreter, so that no other test has filled a cache
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    sizes, built = json.loads(subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert "syzygy.reps.RepSpace.sym" in sizes and "syzygy.hermite.psi_map" in sizes
    assert not {name for name, size in sizes.items() if size} and not built


_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from syzygy.exactla import GF, QQ, ExactMatrix, kernel_basis, rank
from syzygy.tangent import delta2_map
rng = np.random.default_rng(1)
a = rng.integers(1, 5, (96, 96)) * (rng.random((96, 96)) < 0.04)
r, c = np.nonzero(a)
print(rank(ExactMatrix(96, 96, (r, c, a[r, c])), GF(5)))
print(rank(ExactMatrix.from_rows(rng.integers(0, 5, (300, 600)).tolist()), GF(5)))
print(kernel_basis(ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]]), QQ).cols)
print(kernel_basis(ExactMatrix.from_rows([[1, 2, 3], [2, 4, 7]]), GF(5)).cols)
print(delta2_map(5, 2).rank(GF(5)))
print("numpy.ma" in sys.modules)
"""


def test_ranks_and_kernels_import_no_masked_arrays():
    # np.unique without return_* arguments and np.setdiff1d import
    # numpy.ma (9-24 ms per CLI job); a sparse GF(5) rank through the
    # front end, a dense one over several blocks, a kernel over Q and one
    # over GF(5), and a flipped graded rank must not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["93", "300", "2", "1", "20", "False"]


def _imports_fractions(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "fractions" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions"


def test_no_module_imports_fractions():
    # every char-0 path runs on integers (the oracle's ring on lattice
    # bases over Z), so no CLI job does rational arithmetic; an import at
    # any depth, in a function too, counts
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if _imports_fractions(node)]
    assert not found, found
