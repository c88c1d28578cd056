"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that imports every submodule to re-export its
names makes each importer pay for all of them: importing the hook bus
would load the HTTP serving stack.  :func:`lazy_exports` keeps the
package's public names but imports each one's defining module on first
access.  Code inside ``repro`` imports from the defining module and
never goes through these tables (DESIGN.md, "Import discipline").
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a relative module path (``".hooks"``,
    ``"..runtime.script"``) to the public names it defines.  A name is
    resolved on first access and then bound on the package, so later
    lookups are plain attribute reads.
    """
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
