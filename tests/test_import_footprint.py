"""``import repro`` loads only what the core import chain needs.

Every package façade resolves its other names on first access through
:func:`repro._lazy.lazy_exports`.  The first test runs in a fresh
interpreter, because this one has long since imported every module; the
others guard the lazy tables against typos.
"""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

import repro

FACADES = [
    "repro",
    "repro.core",
    "repro.dists",
    "repro.analysis",
    "repro.service",
    "repro.life",
    "repro.evaluate",
    "repro.runtime",
    "repro.resilience",
]

BARE_IMPORT = f"""
import json
import sys

import repro

loaded = sorted(sys.modules)
sections = sorted(repro.runtime.stats())

from repro.core import get_engine

engine = get_engine("parallel")
assert type(engine).__name__ == "ParallelEngine", engine

import importlib

for name in {FACADES!r}:
    module = importlib.import_module(name)
    for export in module.__all__:
        getattr(module, export)
print(json.dumps({{
    "loaded": loaded,
    "sections": sections,
    "sections_after_every_facade": sorted(repro.runtime.stats()),
}}))
"""

#: Modules that ``import repro`` must not load.  ``repro.core.joint`` is
#: not among them: the function ``joint`` shares its submodule's name, so
#: ``repro.core`` binds it eagerly.
NOT_LOADED_PREFIXES = ("repro.service", "repro.analysis")
NOT_LOADED = {
    "repro.runtime.parallel",
    "repro.core.viz",
    "repro.core.bayes",
    "repro.core.lifting",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
}
#: The distribution families the core import chain loads.
DISTS_LOADED = {"repro.dists.base", "repro.dists.empirical", "repro.dists.sampling_function"}


@pytest.fixture(scope="module")
def bare_import() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", BARE_IMPORT], capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_bare_import_loads_no_optional_module(bare_import):
    loaded = set(bare_import["loaded"])
    assert not loaded & NOT_LOADED
    assert not [m for m in loaded if m.startswith(NOT_LOADED_PREFIXES)]
    families = {m for m in loaded if m.startswith("repro.dists.")}
    assert families == DISTS_LOADED


def test_stats_sections_do_not_depend_on_the_facades_loaded(bare_import):
    assert bare_import["sections"] == bare_import["sections_after_every_facade"]


@pytest.mark.parametrize("name", FACADES)
def test_every_export_resolves_and_is_listed(name):
    module = importlib.import_module(name)
    listing = dir(module)
    for export in module.__all__:
        value = getattr(module, export)
        assert export in listing, export
        # A module-valued export is the package's own submodule of that
        # name; anything else means a submodule shadows the exported name.
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"{name}.{export}", export


@pytest.mark.parametrize("name", FACADES)
def test_star_import_binds_every_export(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


def _lazy_table(tree: ast.Module) -> set[str]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            return {key.value for key in node.args[1].keys}
    return set()


def _top_level_bindings(tree: ast.Module) -> set[str]:
    bound = set()
    for node in tree.body:  # not under ``if TYPE_CHECKING``: unbound at run time
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {
                n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)
            }
    return bound


def _facade_modules() -> list[pathlib.Path]:
    root = pathlib.Path(repro.__file__).parent
    return [
        path for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        and "from repro._lazy import lazy_exports" in path.read_text()
    ]


def test_a_facade_module_binds_or_lazily_exports_every_name():
    # Pyflakes (F822) checks ``__all__`` only outside ``__init__.py``.
    paths = _facade_modules()
    assert [p.name for p in paths] == ["evaluate.py"]
    for path in paths:
        tree = ast.parse(path.read_text())
        exported = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        )
        missing = set(exported) - _top_level_bindings(tree) - _lazy_table(tree)
        assert not missing, f"{path.name}: __all__ names neither bound nor lazy: {missing}"
