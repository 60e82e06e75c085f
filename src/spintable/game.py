"""Game semantics: configurations, moves, and replaying one adversary line.

A round is canonically "permute, then add the move, then check for zero",
and the start configuration is itself a checkpoint.  The alternative order
(move first, permute after) is supported by the verifier for cross-checks;
the two agree on which strategies win.

Configurations are vectors in Z_m^n.  For set-valued work they are encoded
as base-m integers with position 0 least significant, so the all-zero
(winning) configuration is always code 0.
"""

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .linalg import ModVector
from .perm import GeneratorSet, Permutation


@dataclass(frozen=True)
class GameSpec:
    """Parameters of one game: n positions, counters mod m, adversary set S."""

    n: int
    m: int
    S: GeneratorSet

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one position")
        if self.m < 1:
            raise ValueError("modulus must be >= 1")
        if self.S.n != self.n:
            raise ValueError("generator set acts on the wrong number of positions")
        if not self.S.contains_identity():
            raise ValueError(
                "generator set must contain the identity; see normalize_generators"
            )

    @property
    def state_count(self) -> int:
        return self.m**self.n


@dataclass(frozen=True)
class Strategy:
    """An oblivious move sequence committed in advance.

    metadata carries how a synthesized strategy was built (construction
    name, prime-power split, basis); it never affects equality.
    """

    spec: GameSpec
    moves: tuple[ModVector, ...]
    metadata: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # Once per distinct move object: long strategies share them.
        for y in dict(zip(map(id, self.moves), self.moves)).values():
            if y.m != self.spec.m or y.n != self.spec.n:
                raise ValueError("every move must be a length-n vector mod m")

    def __len__(self):
        return len(self.moves)


def encode_config(x: ModVector) -> int:
    code = 0
    for e in reversed(x.entries):
        code = code * x.m + e
    return code


def decode_config(code: int, n: int, m: int) -> ModVector:
    entries = []
    for _ in range(n):
        entries.append(code % m)
        code //= m
    return ModVector(m, tuple(entries))


def act(g: Permutation, x: ModVector) -> ModVector:
    """Permute coordinates: the entry at position i moves to position g(i)."""
    if g.n != x.n:
        raise ValueError("permutation and vector size mismatch")
    out = [0] * x.n
    for i, e in enumerate(x.entries):
        out[g.mapping[i]] = e
    return ModVector(x.m, tuple(out))


@dataclass(frozen=True)
class TraceResult:
    """One concrete adversary line, fully replayed."""

    configs: tuple[ModVector, ...]
    won: bool


def simulate_trace(
    spec: GameSpec,
    start: ModVector,
    moves: Iterable[ModVector],
    perm_choices: Iterable[int],
) -> TraceResult:
    """Replay one adversary line in canonical order and record every state.

    perm_choices are indices into spec.S, one per move.  The won flag is true
    if the zero configuration appears anywhere, including at the start.
    """
    moves = list(moves)
    choices = list(perm_choices)
    if len(moves) != len(choices):
        raise ValueError("need exactly one permutation choice per move")
    x = start
    configs = [x]
    won = x.is_zero()
    for y, gi in zip(moves, choices):
        if not 0 <= gi < len(spec.S.perms):
            raise IndexError(f"generator index {gi} out of range")
        x = act(spec.S.perms[gi], x) + y
        configs.append(x)
        won = won or x.is_zero()
    return TraceResult(tuple(configs), won)
