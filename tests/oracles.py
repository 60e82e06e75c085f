"""Independent reference implementations used only by tests.

These deliberately share no code with the package: the game-tree evaluator
recurses over explicit adversary choices, span membership is decided by
enumerating every coefficient tuple, orbits come from plain BFS, and belief
sets are Python sets of configuration tuples.
"""

import itertools
from functools import lru_cache


def apply_perm(mapping, x):
    out = [0] * len(x)
    for i, e in enumerate(x):
        out[mapping[i]] = e
    return tuple(out)


def add_mod(x, y, m):
    return tuple((a + b) % m for a, b in zip(x, y))


def vp(i, p):
    """p-adic valuation: the largest e with p^e dividing i."""
    if i <= 0:
        raise ValueError("valuation needs a positive integer")
    e = 0
    while i % p == 0:
        i //= p
        e += 1
    return e


def configs(n, m):
    """Every configuration of Z_m^n as a tuple, in code order: position 0
    is the least significant base-m digit."""
    return [tuple(reversed(x)) for x in itertools.product(range(m), repeat=n)]


def belief_step(belief, move, generators, m):
    """One round of sparse belief tracking: map every configuration through
    every generator, add the move, and drop zero, where that line has won."""
    out = {add_mod(apply_perm(g, x), tuple(move), m) for x in belief for g in generators}
    out.discard((0,) * len(move))
    return out


def move_permute_wins(n, m, generators, moves):
    """(wins, round) for play in move-permute order, where each round adds
    the move and then the adversary permutes: round is the first after which
    no belief survives, or len(moves).  Sparse belief sets, stepped in that
    order directly."""
    zero = (0,) * n
    belief = set(configs(n, m)) - {zero}
    if not belief:
        return True, 0
    for k, y in enumerate(moves, start=1):
        belief = {apply_perm(g, add_mod(x, tuple(y), m)) for x in belief for g in generators}
        belief.discard(zero)
        if not belief:
            return True, k
    return False, len(moves)


def game_tree_wins(n, m, generators, moves):
    """True iff the move list wins from every start against every adversary.

    Direct recursion: a position after k rounds is winning if it is zero, or
    if every adversary choice leads (via permute, add move, check) to a
    winning position.  The start configuration counts as a checkpoint.
    """
    zero = (0,) * n
    moves = [tuple(y) for y in moves]
    gens = [tuple(g) for g in generators]

    @lru_cache(maxsize=None)
    def forced_win(x, k):
        if k == len(moves):
            return False
        for g in gens:
            nxt = add_mod(apply_perm(g, x), moves[k], m)
            if nxt != zero and not forced_win(nxt, k + 1):
                return False
        return True

    return all(x == zero or forced_win(x, 0) for x in configs(n, m))


def brute_force_in_span(vectors, target, p):
    """Every coefficient tuple in lexicographic order; first exact match."""
    k = len(vectors)
    n = len(target)
    for coeffs in itertools.product(range(p), repeat=k):
        acc = [0] * n
        for c, v in zip(coeffs, vectors):
            for i in range(n):
                acc[i] = (acc[i] + c * v[i]) % p
        if tuple(acc) == tuple(target):
            return coeffs
    return None


def orbit_partition(group_mappings, vectors):
    """Partition vectors into orbits under coordinate permutation."""
    remaining = set(vectors)
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in group_mappings:
                y = apply_perm(g, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def gray_walk(n, m):
    """All of {0..m-1}^n in reflected mixed-radix Gray order, starting at
    zero, built recursively: the last coordinate is the slowest, and the
    walk over the others runs forward and backward in turn."""
    if n == 0:
        return [()]
    inner = gray_walk(n - 1, m)
    out = []
    for d in range(m):
        block = inner if d % 2 == 0 else inner[::-1]
        out.extend(rest + (d,) for rest in block)
    return out


def gray_moves(n, m):
    """The moves whose prefix sums walk gray_walk(n, m): consecutive
    differences mod m."""
    walk = gray_walk(n, m)
    return [tuple((b - a) % m for a, b in zip(x, y)) for x, y in zip(walk, walk[1:])]


def lifted_moves(base, modp, p, n, target_m):
    """Move i (1-based) of the lift is the mod-p move i / block, unscaled,
    when block divides i, and p times base move i mod block otherwise, with
    block = (target_m / p)^n."""
    block = (target_m // p) ** n
    out = []
    for i in range(1, target_m**n):
        if i % block == 0:
            out.append(tuple(modp[i // block - 1]))
        else:
            out.append(tuple(p * e % target_m for e in base[i % block - 1]))
    return out
