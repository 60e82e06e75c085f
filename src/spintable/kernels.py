"""Backend selection for the belief-propagation kernel.

The compiled extension is preferred when it imported cleanly; the NumPy
fallback is always available, and is imported on first use so that
listing the backends loads no NumPy.  Set SPINTABLE_BACKEND=python (or
=compiled) to force a choice process-wide; per-call overrides go through
get_backend.
"""

import os
from importlib import import_module

try:
    from . import _kernels  # type: ignore[attr-defined]
except ImportError:
    _kernels = None

# Backend name -> submodule of this package.
_MODULES = {"python": "_kernels_py"}
if _kernels is not None:
    _MODULES["compiled"] = "_kernels"


def available_backends() -> list[str]:
    return sorted(_MODULES)


def get_backend(name: str):
    if name not in _MODULES:
        raise ValueError(
            f"backend {name!r} not available here (have: {', '.join(available_backends())})"
        )
    return import_module(f".{_MODULES[name]}", __package__)


def default_backend():
    forced = os.environ.get("SPINTABLE_BACKEND")
    return get_backend(forced or ("compiled" if _kernels is not None else "python"))


def default_backend_name() -> str:
    return default_backend().NAME
