"""Permutations on n positions and the subgroups they generate.

A permutation is stored in image form: ``mapping[i]`` is the position that
the counter at position ``i`` moves to.  Positions are 0-based throughout.
Composition is fixed globally as ``compose(a, b)(i) = a(b(i))`` (apply ``b``
first); every consumer of left-to-right products in this package relies on
that one convention.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator


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

    Listed order matters: element enumeration, certificate blocks,
    adversary scans, and witness indices all follow positions in
    ``perms``.  The identity is required by the game itself but not by this
    container; ``GameSpec`` enforces it and ``normalize_generators``
    manufactures it.
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

    @cached_property
    def inverse_mappings(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's inverse in image form, in listed order, so that
        acting by ``perms[i]`` sends entry ``inverse_mappings[i][j]`` to j."""
        return tuple(inverse(g).mapping for g in self.perms)

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
    """A subgroup of S_n held as a base and strong generating set.

    ``base`` lists points b_0, b_1, ...; level i keeps the inverses of coset
    representatives u with u(b_i) = x for every x in the orbit of b_i under
    the stabilizer of b_0..b_{i-1}.  The order is the product of the orbit
    lengths, and membership sifts through the levels (Sims 1970; Seress
    2003, ch. 4), so no element of the group is ever stored.
    """

    n: int
    generators: tuple[Permutation, ...] = field(repr=False)
    base: tuple[int, ...] = field(repr=False)
    transversals: tuple[dict[int, tuple[int, ...]], ...] = field(repr=False, compare=False)

    @property
    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    def __contains__(self, g: Permutation) -> bool:
        if g.n != self.n:
            return False
        residue, _ = _sift(g.mapping, self.base, self.transversals)
        return residue == tuple(range(self.n))

    @property
    def elements(self) -> Iterator[Permutation]:
        """Every element, lazily, in breadth-first order: the generators in
        listed order, then each product a·g with a taken in discovery order
        and g applied on the right in listed order.  Each access starts a
        fresh enumeration."""
        gens = [g.mapping for g in self.generators]
        seen: set[tuple[int, ...]] = set()
        queue: deque[tuple[int, ...]] = deque()
        for g in gens:
            if g not in seen:
                seen.add(g)
                queue.append(g)
                yield Permutation(g)
        while queue:
            a = queue.popleft()
            for g in gens:
                c = tuple([a[i] for i in g])
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
                    yield Permutation(c)

    def __repr__(self):
        return f"Group(n={self.n}, order={self.order})"


def _sift(g, base, transversals, start=0) -> tuple[tuple[int, ...], int]:
    """Divide g by coset representatives from level ``start`` down; return
    the residue and the level where no representative matched
    (``len(base)`` when g passed every level)."""
    for level in range(start, len(base)):
        u_inv = transversals[level].get(g[base[level]])
        if u_inv is None:
            return g, level
        g = tuple([u_inv[i] for i in g])
    return g, len(base)


def _orbit_reps(n: int, point: int, gens) -> tuple[dict, dict]:
    """Breadth-first orbit of ``point`` under ``gens``, as two maps: x to a
    representative u with u(point) = x, and x to u^-1."""
    ident = tuple(range(n))
    reps, inverses = {point: ident}, {point: ident}
    queue = [point]
    for x in queue:
        u = reps[x]
        for s in gens:
            y = s[x]
            if y not in reps:
                su = tuple([s[i] for i in u])
                su_inv = [0] * n
                for i, v in enumerate(su):
                    su_inv[v] = i
                reps[y], inverses[y] = su, tuple(su_inv)
                queue.append(y)
    return reps, inverses


def _first_moved(g: tuple[int, ...]) -> int:
    return next(i for i, v in enumerate(g) if v != i)


def _schreier_sims(n: int, gens) -> tuple[tuple[int, ...], tuple[dict, ...]]:
    """Base and inverse transversals of ⟨gens⟩ by deterministic Schreier–Sims.

    Level i holds the strong generators that fix b_0..b_{i-1}.  Generators
    are taken one at a time, and one that already sifts to the identity is
    skipped.  Otherwise its residue joins the levels it fixes, and the
    Schreier generators v^-1·s·u of each level, from the deepest changed one
    up, are sifted through the levels below; a nonidentity residue becomes a
    new strong generator (and a new base point when it fixes the whole
    base), and the scan restarts at the deepest level it reached (Holt, Eick
    and O'Brien 2005, §4.4.2).
    """
    ident = tuple(range(n))
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    orbits: list[tuple[dict, dict]] = []

    def add(residue, top, depth):
        if depth == len(base):
            base.append(_first_moved(residue))
            strong.append([])
            orbits.append(({}, {}))
        for j in range(top, depth + 1):
            strong[j].append(residue)
            orbits[j] = _orbit_reps(n, base[j], strong[j])

    for g in gens:
        residue, depth = _sift(g, base, [inv for _, inv in orbits])
        if residue == ident:
            continue
        add(residue, 0, depth)
        level = depth
        while level >= 0:
            inverses = [inv for _, inv in orbits]
            b, (reps, inv) = base[level], orbits[level]
            found = None
            for u in reps.values():
                for s in strong[level]:
                    v_inv = inv[s[u[b]]]
                    h = tuple([v_inv[s[i]] for i in u])
                    residue, depth = _sift(h, base, inverses, level + 1)
                    if residue != ident:
                        found = residue, depth
                        break
                if found:
                    break
            if found is None:
                level -= 1
                continue
            add(found[0], level + 1, found[1])
            level = found[1]
    return tuple(base), tuple(inv for _, inv in orbits)


@lru_cache(maxsize=256)
def closure(S: GeneratorSet) -> Group:
    """The subgroup ⟨S⟩, as a base and strong generating set.

    The listed generators are kept for ``Group.elements``, whose
    breadth-first order is reproducible from them.
    """
    base, transversals = _schreier_sims(S.n, [g.mapping for g in S.perms])
    return Group(S.n, S.perms, base, transversals)


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

    Walks ``G.elements`` lazily up to the first g whose order is divisible
    by p and returns g^(order/p), so the result is deterministic and only
    that prefix of G is ever built.
    """
    if p < 2 or G.order % p != 0:
        raise ValueError(f"{p} does not divide the group order {G.order}")
    for g in G.elements:
        k = element_order(g)
        if k % p == 0:
            return perm_power(g, k // p)
    raise AssertionError("Cauchy element must exist when p divides |G|")


def cyclic_blocks(G: Group, c: Permutation, p: int) -> list[tuple[int, ...]]:
    """The orbit of one position set under G: the blocks {g(c^i(x0))}.

    The anchor x0 is position 0 when c moves it; otherwise the smallest
    position c moves, so the blocks are never all singletons and the
    constant-on-blocks invariant they induce has content.  Blocks are
    sorted tuples in breadth-first order from the anchor's c-orbit, with
    G's generators applied in listed order.
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
    blocks = [tuple(sorted(orbit))]
    seen = set(blocks)
    for block in blocks:
        for g in G.generators:
            image = tuple(sorted(g.mapping[i] for i in block))
            if image not in seen:
                seen.add(image)
                blocks.append(image)
    return blocks
