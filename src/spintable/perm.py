"""Permutations on n positions and the subgroups they generate.

A permutation is stored in image form: ``mapping[i]`` is the position that
the counter at position ``i`` moves to.  Positions are 0-based throughout.
Composition is fixed globally as ``compose(a, b)(i) = a(b(i))`` (apply ``b``
first); every consumer of left-to-right products in this package relies on
that one convention.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import CapExceeded

DEFAULT_GROUP_CAP = 100_000


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1} in image form."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.mapping))

    def __repr__(self):
        return f"Permutation({list(self.mapping)})"


def perm(images) -> Permutation:
    """Build a Permutation from any iterable of images."""
    return Permutation(tuple(images))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def rotation(n: int, k: int) -> Permutation:
    """The rotation sending position i to i + k (mod n)."""
    return Permutation(tuple((i + k) % n for i in range(n)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """compose(a, b)(i) = a(b(i)); b acts first."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return Permutation(tuple(a.mapping[b.mapping[i]] for i in range(a.n)))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.n
    for i, v in enumerate(a.mapping):
        inv[v] = i
    return Permutation(tuple(inv))


def element_order(a: Permutation) -> int:
    """Smallest k >= 1 with a^k = identity."""
    k = 1
    acc = a
    while not acc.is_identity():
        acc = compose(a, acc)
        k += 1
    return k


def perm_power(a: Permutation, e: int) -> Permutation:
    acc = identity(a.n)
    for _ in range(e):
        acc = compose(a, acc)
    return acc


@dataclass(frozen=True)
class GeneratorSet:
    """The set S of permutations the adversary may apply each turn.

    Listed order matters: closure insertion order, adversary scans, and
    witness indices all refer to positions in ``perms``.  The identity is
    required by the game itself but not by this container; ``GameSpec``
    enforces it and ``normalize_generators`` manufactures it.
    """

    n: int
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.perms:
            raise ValueError("generator set must not be empty")
        for g in self.perms:
            if g.n != self.n:
                raise ValueError(f"generator {g} does not act on {self.n} positions")

    def __len__(self):
        return len(self.perms)

    def contains_identity(self) -> bool:
        return any(g.is_identity() for g in self.perms)

    def with_identity(self) -> "GeneratorSet":
        """This set, with the identity prepended when missing."""
        if self.contains_identity():
            return self
        return GeneratorSet(self.n, (identity(self.n),) + self.perms)


def generator_set(n: int, mappings) -> GeneratorSet:
    return GeneratorSet(n, tuple(perm(m) for m in mappings))


def rotation_generators(n: int) -> GeneratorSet:
    """All n rotations, identity first: the classic spinning-table adversary."""
    return GeneratorSet(n, tuple(rotation(n, k) for k in range(n)))


@dataclass(frozen=True)
class Group:
    """A fully materialized subgroup of S_n with deterministic element order."""

    n: int
    elements: tuple[Permutation, ...] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _mappings(self) -> frozenset[tuple[int, ...]]:
        # Built on the first membership test, so callers that only need the
        # order (decide) never pay for it.
        return frozenset(g.mapping for g in self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return g.mapping in self._mappings

    def __repr__(self):
        return f"Group(n={self.n}, order={self.order})"


@lru_cache(maxsize=256)
def closure(S: GeneratorSet, cap: int = DEFAULT_GROUP_CAP) -> Group:
    """Generate the subgroup ⟨S⟩ by breadth-first products.

    Elements are recorded in BFS insertion order with generators applied on
    the right in listed order, so the enumeration is reproducible.  Raises
    CapExceeded when the group grows past ``cap``.
    """
    seen: dict[tuple[int, ...], Permutation] = {}
    queue: deque[Permutation] = deque()
    for g in S.perms:
        if g.mapping not in seen:
            seen[g.mapping] = g
            queue.append(g)
    while queue:
        a = queue.popleft()
        for g in S.perms:
            c = compose(a, g)
            if c.mapping not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                seen[c.mapping] = c
                queue.append(c)
    elements = tuple(seen.values())
    # A finite set closed under composition is closed under inverses too,
    # hence contains the identity; assert rather than assume.
    ident = identity(S.n)
    assert ident.mapping in seen, "closure of a nonempty set must contain identity"
    return Group(S.n, elements)


def normalize_generators(S: GeneratorSet, t: Permutation) -> GeneratorSet:
    """Replace S by t^{-1}·S so the result contains the identity.

    Pretending t happens every turn by default turns a game whose generator
    set lacks the identity into an equivalent one that has it.
    """
    if t not in S.perms:
        raise ValueError("t must be a member of the generator set")
    t_inv = inverse(t)
    out: list[Permutation] = []
    seen: set[tuple[int, ...]] = set()
    for s in S.perms:
        c = compose(t_inv, s)
        if c.mapping not in seen:
            seen.add(c.mapping)
            out.append(c)
    return GeneratorSet(S.n, tuple(out))


def cauchy_element(G: Group, p: int) -> Permutation:
    """An element of exact order p, for any prime p dividing |G|.

    Scans G in closure order for the first g whose order is divisible by p
    and returns g^(order/p), so the result is deterministic.
    """
    if p < 2 or G.order % p != 0:
        raise ValueError(f"{p} does not divide the group order {G.order}")
    for g in G.elements:
        k = element_order(g)
        if k % p == 0:
            return perm_power(g, k // p)
    raise AssertionError("Cauchy element must exist when p divides |G|")


def cyclic_blocks(G: Group, c: Permutation, p: int) -> list[tuple[int, ...]]:
    """Position blocks {g(c^i(x0))} for all g in G, deduplicated.

    The anchor x0 is position 0 when c moves it; otherwise the smallest
    position c moves, so the blocks are never all singletons and the
    constant-on-blocks invariant they induce has content.  Blocks are
    returned as sorted tuples in first-occurrence order over G's elements.
    """
    if c not in G:
        raise ValueError("c must belong to G")
    if c(0) != 0:
        anchor = 0
    else:
        moved = [x for x in range(c.n) if c(x) != x]
        if not moved:
            raise ValueError("c is the identity; it induces no blocks")
        anchor = moved[0]
    orbit = [anchor]
    x = c(anchor)
    while x != anchor:
        orbit.append(x)
        x = c(x)
    blocks: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for g in G.elements:
        block = tuple(sorted(g(i) for i in orbit))
        if block not in seen:
            seen.add(block)
            blocks.append(block)
    return blocks
