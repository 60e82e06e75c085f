"""Executable impossibility certificates and strategy reductions.

When the group order and the modulus involve two distinct primes p and q,
there is a position-block family (orbits of an order-p element pushed around
by the group) such that "constant on every block mod q" is a property the
adversary can preserve forever: from any configuration violating it, some
available permutation keeps it violated no matter what the player adds.
Since the all-zero configuration satisfies it, the player never wins.  This
module builds that certificate and exposes the adversary as an oracle.

The subsample/project reductions transform winning strategies of composite
games down to smaller ones; run forward they give cheap cross-validation.
"""

from dataclasses import dataclass

from .errors import SolvableSpec
from .game import GameSpec, ModVector, Strategy
from .perm import (
    Permutation,
    cauchy_element,
    closure,
    cyclic_blocks,
    element_order,
    rotation_generators,
)
from .solve import decide, factorize


@dataclass(frozen=True)
class UnsolvabilityCertificate:
    """Data making the impossibility argument checkable: distinct primes
    p (dividing the group order) and q (dividing the modulus), an order-p
    element c, and the block family its orbit induces."""

    p: int
    q: int
    c: Permutation
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("certificate primes must be distinct")
        if element_order(self.c) != self.p:
            raise ValueError("c must have order exactly p")
        if not any(len(b) >= 2 for b in self.blocks):
            raise ValueError("certificate needs a block of size >= 2")

    @property
    def n(self) -> int:
        return self.c.n


def build_certificate(spec: GameSpec) -> UnsolvabilityCertificate:
    """Certificate for an unwinnable spec; raises SolvableSpec otherwise.

    Prime choice is fixed for reproducibility: the smallest prime of |G|
    not dividing m when one exists, else the smallest prime of |G|; q is
    the smallest prime of m different from p.
    """
    verdict = decide(spec)
    if verdict.solvable:
        raise SolvableSpec(f"game is winnable ({verdict.reason}); nothing to refute")
    G = closure(spec.S)
    group_primes = sorted(factorize(G.order))
    mod_primes = sorted(factorize(spec.m))
    p = next((x for x in group_primes if spec.m % x != 0), group_primes[0])
    q = next(x for x in mod_primes if x != p)
    c = cauchy_element(G, p)
    blocks = tuple(cyclic_blocks(G, c, p))
    return UnsolvabilityCertificate(p=p, q=q, c=c, blocks=blocks)


def is_semi_homogeneous(x: tuple[int, ...], cert: UnsolvabilityCertificate) -> bool:
    """True when every certificate block of the configuration x (a tuple of
    residues) is constant mod q."""
    q = cert.q
    for block in cert.blocks:
        first = x[block[0]] % q
        for i in block[1:]:
            if x[i] % q != first:
                return False
    return True


def initial_bad_config(cert: UnsolvabilityCertificate, m: int) -> tuple[int, ...]:
    """A deterministic start the invariant condemns: 1 at the smallest
    position of the first big block, 0 elsewhere."""
    if m % cert.q != 0:
        raise ValueError(f"modulus {m} is not divisible by certificate prime {cert.q}")
    block = next(b for b in cert.blocks if len(b) >= 2)
    entries = [0] * cert.n
    entries[block[0]] = 1
    return tuple(entries)


def adversary_move(
    x: tuple[int, ...], y: tuple[int, ...], cert: UnsolvabilityCertificate, spec: GameSpec
) -> tuple[int, tuple[int, ...]]:
    """The first generator, by index, that keeps the configuration
    non-semi-homogeneous after the player's move y, with the configuration
    it leads to: ``act(spec.S.perms[index], x) + y`` on plain residues.

    One must exist whenever x already violates the invariant; exhausting S
    would disprove the theory, so it aborts loudly.
    """
    if len(x) != spec.n or len(y) != spec.n:
        raise ValueError(f"configuration and move must have {spec.n} entries")
    if is_semi_homogeneous(x, cert):
        raise ValueError("adversary oracle requires a non-semi-homogeneous configuration")
    m = spec.m
    for index, inv in enumerate(spec.S.inverse_mappings):
        x_next = tuple([(x[j] + e) % m for j, e in zip(inv, y)])
        if not is_semi_homogeneous(x_next, cert):
            return index, x_next
    raise AssertionError(
        "no generator preserves the invariant; the certificate theory is violated"
    )


def _require_rotation_spec(spec: GameSpec):
    if set(spec.S.perms) != set(rotation_generators(spec.n).perms):
        raise ValueError("this reduction applies to full rotation games only")


def subsample_strategy(strategy: Strategy, k: int) -> Strategy:
    """Keep every k-th position of a rotation-game strategy: a winner on
    n = a*k positions yields a winner on a positions."""
    spec = strategy.spec
    _require_rotation_spec(spec)
    if k < 1 or spec.n % k != 0:
        raise ValueError(f"{k} does not divide {spec.n}")
    a = spec.n // k
    keep = [j * k + k - 1 for j in range(a)]
    new_spec = GameSpec(a, spec.m, rotation_generators(a))
    moves = tuple(
        ModVector(spec.m, tuple(y.entries[i] for i in keep)) for y in strategy.moves
    )
    return Strategy(new_spec, moves)


def project_strategy(strategy: Strategy, b: int) -> Strategy:
    """Reduce every residue mod b: a winner mod m yields a winner mod b
    whenever b divides m."""
    spec = strategy.spec
    if b < 1 or spec.m % b != 0:
        raise ValueError(f"{b} does not divide the modulus {spec.m}")
    new_spec = GameSpec(spec.n, b, spec.S)
    moves = tuple(ModVector(b, tuple(e % b for e in y.entries)) for y in strategy.moves)
    return Strategy(new_spec, moves)
