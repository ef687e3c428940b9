"""The import wall: the engine never loads the simulator.

The engine is what a real run executes — the pipeline driver, the
daemon, the process workers, the analytics, the tile plane, the cache
and the planner. The simulator (``repro.sim``) and its instrumented
dictionaries (``repro.dicts``) stand in for the paper's 16-core node
and must stay out of it. Two checks hold the line:

* a static walk over the AST imports of every module the engine roots
  reach — module-level and function-local, with the package ``__init__``
  each import runs — that fails on any simulator module;
* its runtime twin, which imports each root in a fresh interpreter and
  reads ``sys.modules``, catching ``importlib`` imports and anything
  else the walk cannot see.

Run as a script, it prints the engine's size by the same walk, the
number README states::

    python tests/test_import_wall.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Where the engine starts: every entry point a real run, the daemon or
#: the benchmark goes through.
ENGINE_ROOTS = (
    "repro.core.pipeline",
    "repro.serve.daemon",
    "repro.exec.process",
    "repro.obs.analytics",
    "repro.tiles.store",
    "repro.io.arff",
    "repro.cache.pipeline_cache",
    "repro.plan",
)

#: The simulator's packages.
SIMULATOR = ("repro.sim", "repro.dicts")


def _is_simulator(module: str) -> bool:
    return any(module == p or module.startswith(p + ".") for p in SIMULATOR)


def _path(module: str) -> str | None:
    """Source file of a ``repro`` module or package, ``None`` for a name
    that is not a module (a class or function imported from one)."""
    base = os.path.join(SRC, *module.split("."))
    if os.path.isdir(base):
        return os.path.join(base, "__init__.py")
    if os.path.exists(base + ".py"):
        return base + ".py"
    return None


def _imports(module: str) -> set[str]:
    """Every ``repro`` module ``module`` imports, anywhere in its body, and
    the packages whose ``__init__`` it runs."""
    path = _path(module)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module
            found.add(target)
            # ``from pkg import name`` imports ``pkg.name`` when it is a module.
            found.update(f"{target}.{alias.name}" for alias in node.names)
    parents = {
        ".".join(parts[:i])
        for name in found | {module}
        for parts in [name.split(".")]
        for i in range(1, len(parts))
    }
    return {
        name for name in found | parents
        if name.split(".")[0] == "repro" and _path(name)
    }


def engine_closure() -> dict[str, set[str]]:
    """Every module the engine roots reach -> the modules that import it."""
    importers: dict[str, set[str]] = {}
    todo = [(root, "<root>") for root in ENGINE_ROOTS]
    while todo:
        module, importer = todo.pop()
        if module in importers:
            importers[module].add(importer)
            continue
        importers[module] = {importer}
        todo.extend((name, module) for name in _imports(module))
    return importers


def engine_size() -> tuple[int, int]:
    """``(lines, modules)`` of the engine closure."""
    closure = engine_closure()
    lines = 0
    for module in closure:
        with open(_path(module), encoding="utf-8") as handle:
            lines += len(handle.read().splitlines())
    return lines, len(closure)


def test_no_engine_root_reaches_the_simulator():
    closure = engine_closure()
    assert all(_path(root) for root in ENGINE_ROOTS)
    leaks = {
        module: sorted(importers)
        for module, importers in closure.items()
        if _is_simulator(module)
    }
    assert not leaks, f"simulator modules in the engine (imported by): {leaks}"


def test_walk_sees_package_inits_and_local_imports():
    # The walk itself: a package init runs before its modules, and a
    # function-local import counts like a module-level one.
    closure = engine_closure()
    assert {"repro", "repro.exec", "repro.ops"} <= set(closure)
    assert "repro.ops.kernels" in _imports("repro.plan.calibration")


@pytest.mark.parametrize("root", ("repro",) + ENGINE_ROOTS)
def test_importing_an_engine_root_loads_no_simulator_module(root):
    probe = (
        "import importlib, sys\n"
        f"importlib.import_module({root!r})\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.split()
    assert root in out
    assert [m for m in out if _is_simulator(m)] == []


def test_readme_states_the_engine_size():
    lines, modules = engine_size()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    stated = f"engine: {lines:,} lines in {modules} modules"
    assert stated in readme, f"README should say {stated!r}"


if __name__ == "__main__":
    lines, modules = engine_size()
    print(f"engine: {lines:,} lines in {modules} modules")
