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
