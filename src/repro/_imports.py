"""Package re-exports that are imported on first attribute access.

The synthesis flow is symbolic and never touches numpy; only the
numeric layers (MNA/AC solves, the VHIF interpreter, verification,
Monte Carlo) do, and commands such as ``vase check`` need no flow at
all.  Packages resolve their re-exports through the PEP 562 module
``__getattr__`` built here, so ``import repro.spice`` (say) loads
neither numpy nor the netlister until one of those names is used.
See DESIGN.md, "Import layering".
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, MutableMapping, Tuple


def deferred_exports(
    namespace: MutableMapping[str, object], exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    deferred name to the module defining it (a name equal to that
    module's last component is the submodule itself).  A resolved name
    is cached in ``namespace``, so ``__getattr__`` runs once per name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(module_name)
        value = (
            module
            if module_name == f"{package}.{name}"
            else getattr(module, name)
        )
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
