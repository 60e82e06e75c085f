"""Decide solvability and construct provably winning strategies.

A game (S, m) is winnable iff the generated group is trivial, the modulus is
1, or both the group order and the modulus are powers of one prime.  All
three winnable cases get explicit optimal constructions here, each of length
exactly m^n - 1:

  * trivial group: moves whose prefix sums walk a mixed-radix reflected Gray
    code through every nonzero configuration;
  * m = p: a ruler schedule y_i = x_{v_p(i)} over a basis that every
    generator perturbs only "downward" (binomial basis on full rotation
    groups, invariant-chain basis otherwise);
  * m = p^b: the interleaving that plays a scaled mod-p^{b-1} strategy in
    blocks, stitched together by the mod-p strategy at block boundaries.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapExceeded, UnsolvableSpec
from .game import GameSpec, Strategy
from .linalg import ModVector, ZpBasis, binomial_basis, fixed_chain_basis, mod_vector
from .perm import closure, rotation

DEFAULT_MOVE_CAP = 1 << 26

REASON_TRIVIAL_GROUP = "trivial-group"
REASON_UNIT_MODULUS = "unit-modulus"
REASON_PRIME_POWER = "prime-power-match"
REASON_MIXED_PRIMES = "mixed-primes"


def factorize(x: int) -> dict[int, int]:
    if x < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def prime_power(x: int) -> Optional[tuple[int, int]]:
    """(p, e) with x = p^e and e >= 1, or None."""
    if x < 2:
        return None
    factors = factorize(x)
    if len(factors) != 1:
        return None
    [(p, e)] = factors.items()
    return p, e


@dataclass(frozen=True)
class SolvabilityVerdict:
    solvable: bool
    group_order: int
    reason: str
    p: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None


def decide(spec: GameSpec) -> SolvabilityVerdict:
    """Winnable iff |G| = 1, m = 1, or |G| and m are powers of one prime."""
    order = closure(spec.S).order
    if spec.m == 1:
        return SolvabilityVerdict(True, order, REASON_UNIT_MODULUS)
    if order == 1:
        return SolvabilityVerdict(True, order, REASON_TRIVIAL_GROUP)
    pp_group = prime_power(order)
    pp_mod = prime_power(spec.m)
    if pp_group and pp_mod and pp_group[0] == pp_mod[0]:
        p, a = pp_group
        return SolvabilityVerdict(True, order, REASON_PRIME_POWER, p=p, a=a, b=pp_mod[1])
    return SolvabilityVerdict(False, order, REASON_MIXED_PRIMES)


def optimal_length(n: int, m: int, move_cap: int = DEFAULT_MOVE_CAP) -> int:
    """m^n - 1: no winning strategy can be shorter, and ours are no longer."""
    if m < 1 or n < 1:
        raise ValueError("need n >= 1 and m >= 1")
    length = m**n - 1
    if length > move_cap:
        raise CapExceeded(f"strategy length {length} exceeds cap {move_cap}")
    return length


def ruler_valuations(count: int, p: int) -> np.ndarray:
    """v_p(i) for i = 1..count, one strided pass per power of p."""
    if p < 2 and count > 0:
        raise ValueError("valuation needs a base p >= 2")
    valuation = np.zeros(count, dtype=np.intp)
    step = p
    while step <= count:
        valuation[step - 1 :: step] += 1
        step *= p
    return valuation


def enumeration_strategy(spec: GameSpec) -> Strategy:
    """Winning moves for a trivial group: with no adversary permutations,
    the prefix sums just need to visit every nonzero configuration once,
    and the reflected mixed-radix Gray walk does it touching one counter
    per move.  Move k of that walk changes counter j = v_m(k), by +1 when
    k // m^(j+1) is even and by -1 when it is odd, so the whole walk is a
    schedule over 2n shared vectors."""
    if closure(spec.S).order != 1:
        raise ValueError("enumeration strategy requires a trivial group")
    n, m = spec.n, spec.m
    length = optimal_length(n, m)
    counter = ruler_valuations(length, m)
    k = np.arange(1, length + 1, dtype=np.int64)
    down = (k // np.power(m, counter + 1, dtype=np.int64)) % 2
    vectors = [
        mod_vector(m, (step if i == j else 0 for i in range(n))) for j in range(n) for step in (1, -1)
    ]
    moves = tuple(map(vectors.__getitem__, (2 * counter + down).tolist()))
    return Strategy(spec, moves, metadata={"construction": "gray"})


def _is_full_rotation_group(spec: GameSpec) -> bool:
    G = closure(spec.S)
    return G.order == spec.n and rotation(spec.n, 1) in G


def ruler_moves(basis: ZpBasis, p: int, count: int) -> tuple[ModVector, ...]:
    """The schedule y_i = x_{v_p(i)} for i = 1..count; move objects are
    shared, so long schedules stay cheap."""
    return tuple(map(basis.vectors.__getitem__, ruler_valuations(count, p).tolist()))


def synth_mod_p(spec: GameSpec) -> Strategy:
    """Winning strategy for prime modulus via the ruler schedule.

    On the full rotation group the binomial basis is used, which reproduces
    the classic explicit sequences; any other p-group gets the
    invariant-chain basis.  Either way each adversary permutation can only
    leak a basis vector into earlier ones, so the schedule clears the
    leading coefficient no matter what the adversary does.
    """
    verdict = decide(spec)
    if not verdict.solvable:
        raise UnsolvableSpec(f"game is not winnable: {verdict.reason}")
    if verdict.group_order == 1:
        raise ValueError("trivial group: use enumeration_strategy")
    p = spec.m
    if verdict.p != p or verdict.b != 1:
        raise ValueError("synth_mod_p needs modulus equal to the group's prime")
    length = optimal_length(spec.n, spec.m)
    if _is_full_rotation_group(spec):
        basis = binomial_basis(p, spec.n)
        construction = "binomial"
    else:
        basis = fixed_chain_basis(spec.S, p)
        construction = "fixed-chain"
    moves = ruler_moves(basis, p, length)
    meta = {
        "construction": construction,
        "p": p,
        "a": verdict.a,
        "b": 1,
        "basis": [list(v.entries) for v in basis.vectors],
    }
    return Strategy(spec, moves, metadata=meta)


def lift_strategy(base: Strategy, modp: Strategy) -> Strategy:
    """Combine a mod-p^{b-1} winner and a mod-p winner into a mod-p^b winner.

    Move i of the result is p times base move (i mod p^{(b-1)n}) except at
    block boundaries (i divisible by p^{(b-1)n}), where the mod-p strategy's
    move i / p^{(b-1)n} is played unscaled.  Scaled blocks are invisible mod
    p, so the boundary moves zero every counter mod p at some point, after
    which one scaled block finishes the game.
    """
    if base.spec.S != modp.spec.S or base.spec.n != modp.spec.n:
        raise ValueError("both strategies must share the same game positions and generators")
    p = modp.spec.m
    pp = prime_power(p)
    if not (pp and pp[1] == 1):
        raise ValueError("second strategy must have prime modulus")
    n = base.spec.n
    if base.spec.m == 1:
        b = 1
    else:
        base_pp = prime_power(base.spec.m)
        if base_pp is None or base_pp[0] != p:
            raise ValueError(f"base modulus {base.spec.m} is not a power of {p}")
        b = base_pp[1] + 1
    target_m = p**b
    spec = GameSpec(n, target_m, base.spec.S)
    block = p ** ((b - 1) * n)
    optimal_length(n, target_m)
    if len(base.moves) != block - 1 or len(modp.moves) != p**n - 1:
        raise ValueError("both strategies must have optimal length")
    embed_scaled = {
        y.entries: ModVector(target_m, tuple(p * e for e in y.entries)) for y in set(base.moves)
    }
    embed_plain = {
        y.entries: ModVector(target_m, y.entries) for y in set(modp.moves)
    }
    scaled = [embed_scaled[y.entries] for y in base.moves]
    moves = list(scaled)
    for y in modp.moves:
        moves.append(embed_plain[y.entries])
        moves.extend(scaled)
    meta = dict(modp.metadata or {})
    meta["construction"] = "lift"
    meta["b"] = b
    return Strategy(spec, tuple(moves), metadata=meta)


def synth(spec: GameSpec) -> Strategy:
    """Construct a winning strategy of length exactly m^n - 1, or raise
    UnsolvableSpec (the refutation module handles those)."""
    verdict = decide(spec)
    if not verdict.solvable:
        raise UnsolvableSpec(
            f"game is not winnable ({verdict.reason}); build a certificate instead"
        )
    if spec.m == 1:
        return Strategy(spec, (), metadata={"construction": "gray"})
    if verdict.group_order == 1:
        return enumeration_strategy(spec)
    optimal_length(spec.n, spec.m)
    base_spec = GameSpec(spec.n, verdict.p, spec.S)
    modp = synth_mod_p(base_spec)
    out = modp
    for _ in range(verdict.b - 1):
        out = lift_strategy(out, modp)
    return out
