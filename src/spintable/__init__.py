"""Solver toolkit for the blindfolded spinning-table counter game.

Decide whether a game (S, m) is winnable, synthesize optimal oblivious
winning strategies, verify any strategy exhaustively against the adaptive
adversary, and emit checkable impossibility certificates when no strategy
can win.
"""

from .errors import CapExceeded, SolvableSpec, SpintableError, UnsolvableSpec
from .game import (
    GameSpec,
    Strategy,
    TraceResult,
    act,
    decode_config,
    encode_config,
    simulate_trace,
)
from .kernels import available_backends, default_backend_name
from .linalg import (
    ModVector,
    ZpBasis,
    binomial_basis,
    fixed_chain_basis,
    fixed_space,
    mod_vector,
    solve_in_span,
)
from .perm import (
    GeneratorSet,
    Group,
    Permutation,
    cauchy_element,
    closure,
    compose,
    cyclic_blocks,
    element_order,
    generator_set,
    identity,
    inverse,
    normalize_generators,
    perm,
    rotation,
    rotation_generators,
)
from .refute import (
    UnsolvabilityCertificate,
    adversary_move,
    build_certificate,
    initial_bad_config,
    is_semi_homogeneous,
    project_strategy,
    subsample_strategy,
)
from .solve import (
    SolvabilityVerdict,
    decide,
    enumeration_strategy,
    lift_strategy,
    optimal_length,
    synth,
    synth_mod_p,
)
from .prove import proves_win
from .verify import BenchResult, Verdict, Witness, bench_verify, verify_dense, verify_strategy

__version__ = "0.1.0"
