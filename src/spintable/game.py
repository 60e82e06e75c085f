"""Game semantics: configurations, moves, and replaying one adversary line.

A round is canonically "permute, then add the move, then check for zero",
and the start configuration is itself a checkpoint.  The alternative order
(move first, permute after) is supported by the verifier for cross-checks;
the two agree on which strategies win.

Configurations and moves are vectors in Z_m^n (ModVector).  For set-valued
work they are encoded as base-m integers with position 0 least significant,
so the all-zero (winning) configuration is always code 0.
"""

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .perm import GeneratorSet, Permutation

# The largest state space the dense verifier allocates tables for; kept
# here so that the CLI's defaults do not import the verifier.
DEFAULT_STATE_CAP = 1 << 24


@dataclass(frozen=True)
class ModVector:
    """A length-n vector of residues mod m."""

    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus must be >= 1")
        if any(not 0 <= e < self.m for e in self.entries):
            raise ValueError(f"entries must lie in [0, {self.m}): {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __add__(self, other: "ModVector") -> "ModVector":
        self._check(other)
        return ModVector(self.m, tuple((a + b) % self.m for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ModVector") -> "ModVector":
        self._check(other)
        return ModVector(self.m, tuple((a - b) % self.m for a, b in zip(self.entries, other.entries)))

    def scale(self, k: int) -> "ModVector":
        return ModVector(self.m, tuple((k * a) % self.m for a in self.entries))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _check(self, other: "ModVector"):
        if self.m != other.m or self.n != other.n:
            raise ValueError("vectors must share modulus and length")


def mod_vector(m: int, entries) -> ModVector:
    return ModVector(m, tuple(int(e) % m for e in entries))


def zero_vector(m: int, n: int) -> ModVector:
    return ModVector(m, (0,) * n)


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


def config_digits(code: int, n: int, m: int) -> tuple[int, ...]:
    """The n base-m digits of code, position 0 (least significant) first."""
    entries = []
    for _ in range(n):
        code, digit = divmod(code, m)
        entries.append(digit)
    return tuple(entries)


def decode_config(code: int, n: int, m: int) -> ModVector:
    return ModVector(m, config_digits(code, n, m))


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
