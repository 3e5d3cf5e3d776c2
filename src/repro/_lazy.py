"""PEP 562 lazy re-exports, shared by the library's packages.

Importing any module of a package first runs the package's
``__init__``.  A package ``__init__`` that imported every submodule to
re-export their names made ``import repro.core.points`` run all of
``repro.core``, and ``import repro.api`` compile every model's code.
:func:`lazy_exports` gives a package a module ``__getattr__`` and
``__dir__`` instead: a re-exported name imports its defining submodule
on first access, so a process pays only for the modules it uses.

An export is read from its defining module on every access and never
copied into the package, so it is always the very object the defining
module holds, including after something rebinds it there.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: "dict[str, tuple[str, ...]]"):
    """``(__getattr__, __dir__, names)`` for the package ``package``.

    ``exports`` maps a submodule's name (relative to ``package``) to the
    public names the package re-exports from it; a submodule that lists
    its own name is re-exported itself.  ``names`` is every re-exported
    name, in ``exports`` order, for the package's ``__all__``.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        mod = importlib.import_module(f"{package}.{module}")
        return mod if name == module else getattr(mod, name)

    def __dir__() -> "list[str]":
        return sorted({*vars(sys.modules[package]), *owner})

    return __getattr__, __dir__, list(owner)
