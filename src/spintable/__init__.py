"""Solver toolkit for the blindfolded spinning-table counter game.

Decide whether a game (S, m) is winnable, synthesize optimal oblivious
winning strategies, verify any strategy exhaustively against the adaptive
adversary, and emit checkable impossibility certificates when no strategy
can win.

The names below are resolved from their submodules on first use (PEP 562),
so importing the package, or deciding and refuting games, loads neither
NumPy nor the verifier.
"""

from importlib import import_module

# Bound eagerly: the function ``perm`` shadows the submodule of that name,
# and binding it after the submodule is loaded keeps ``from spintable import
# perm`` the function whatever is imported later.
from .perm import perm

_EXPORTS = {
    "errors": ("CapExceeded", "SolvableSpec", "SpintableError", "UnsolvableSpec"),
    "game": (
        "GameSpec", "ModVector", "Strategy", "TraceResult", "act", "decode_config",
        "encode_config", "mod_vector", "simulate_trace",
    ),
    "kernels": ("available_backends", "default_backend_name"),
    "linalg": ("ZpBasis", "binomial_basis", "fixed_chain_basis", "fixed_space", "solve_in_span"),
    "perm": (
        "GeneratorSet", "Group", "Permutation", "cauchy_element", "closure", "compose",
        "cyclic_blocks", "element_order", "generator_set", "identity", "inverse",
        "normalize_generators", "perm", "rotation", "rotation_generators",
    ),
    "refute": (
        "UnsolvabilityCertificate", "adversary_move", "build_certificate", "initial_bad_config",
        "is_semi_homogeneous", "project_strategy", "subsample_strategy",
    ),
    "solve": (
        "SolvabilityVerdict", "decide", "enumeration_strategy", "lift_strategy",
        "optimal_length", "synth", "synth_mod_p",
    ),
    "prove": ("proves_win",),
    "verify": ("BenchResult", "Verdict", "Witness", "bench_verify", "verify_dense", "verify_strategy"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
