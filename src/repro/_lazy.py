"""Lazy package façades (PEP 562): a re-exported name loads on first access.

A façade that imported every submodule it re-exports would make each
``import repro`` load every distribution family, the service tier with
asyncio and the process-pool engine with multiprocessing, whether or not
the program uses them.  Each façade instead keeps a ``{name: module}``
table and hands it to :func:`lazy_exports`; only the names its own
import chain loads anyway are bound eagerly.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, str]):
    """Module ``__getattr__`` and ``__dir__`` that load ``table``'s names on demand.

    ``table`` maps each lazily exported name to the module defining it,
    written ``"module:attr"`` when the export is an alias.  A name whose
    module is the package's own submodule of that name is the submodule
    itself.  The first access imports the module and binds the name in
    ``namespace``, so every later access is a plain global lookup.  Any
    other object named like a submodule (the function
    ``repro.core.joint``) cannot be lazy: importing the submodule would
    bind the module over it.

    Used at the end of a façade::

        __getattr__, __dir__ = lazy_exports(globals(), {"Beta": "repro.dists.beta"})
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        target = table.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if module_name == f"{package}.{name}":
            value = module
        else:
            value = getattr(module, attr or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
