"""Win proofs read off a strategy's moves, for the three constructions of solve.py.

Dense verification of a winner of optimal length m^n - 1 costs Theta(m^2n):
with the identity available, at most one configuration leaves the survivor
set per round.  The synthesized winners, however, win for reasons that can
be checked from the moves and the generators alone.  Each check below reads
nothing else (metadata is never trusted) and, when it passes, the strategy
wins in canonical round order (permute, add the move, check for zero)
against every start and every adversary line:

* trivial group: every generator is the identity, so the state after k
  moves is the start plus the k-th prefix sum, and the strategy wins iff its
  m^n - 1 prefix sums are distinct and nonzero.  This check is exact.
* ruler (m = p prime): with x_j = y_{p^j}, every move y_i is x_{v_p(i)},
  the x_j have rank n, and g x_j - x_j lies in span(x_0 .. x_{j-1}) for every
  generator g.  Then every g keeps the top basis coefficient, the moves
  between multiples of p^{n-1} keep it too, and the moves at those multiples
  step it through all p values, so at the start of some block it is 0 and
  the state lies in span(x_0 .. x_{n-2}).  That block plays the ruler
  schedule one dimension lower; induction on n.  The flag condition is
  closed under products, so the proof also holds against an adversary that
  plays any element of the generated group.
* lift (m = p^b, b >= 2): with block = p^{(b-1)n}, the moves at multiples of
  block have entries < p and form a mod-p strategy z, and every other move
  i is p times move (i mod block) of one base strategy w, the same in every
  block.  Scaled moves vanish mod p, so mod p the boundary moves play z
  against an adversary that composes up to `block` generators between them;
  z must therefore pass the ruler check, whose proof covers the whole group.
  Once the state is 0 mod p at a boundary it is p times a mod-p^{b-1} state,
  and the following block plays w on it, so w may pass any check here.

A strategy that passes none of them is not thereby a loser: the caller
falls back to dense verification.
"""

import numpy as np

from .game import Strategy, act, decode_config, encode_config
from .linalg import _rref, is_prime, solve_in_span
from .perm import GeneratorSet
from .solve import prime_power, ruler_valuations


def proves_win(strategy: Strategy) -> bool:
    """True if the moves have one of the structures above, which proves the
    win; False means "not proved", never "loses"."""
    spec = strategy.spec
    size = spec.state_count
    if size < 2 or len(strategy.moves) != size - 1:
        return False
    return _proves(_move_codes(strategy.moves), spec.m, spec.n, spec.S)


def _move_codes(moves) -> np.ndarray:
    """Base-m codes of the moves.  Each distinct move object is encoded once,
    so strategies that share one object per distinct move (as loaded and
    synthesized ones do) cost a few array passes, not a Python call per move."""
    ids = np.fromiter(map(id, moves), dtype=np.uint64, count=len(moves))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    table = np.array([encode_config(moves[i]) for i in first.tolist()], dtype=np.int64)
    return table[inverse]


def _digit(codes: np.ndarray, m: int, i: int) -> np.ndarray:
    return (codes // m**i) % m


def _proves(codes: np.ndarray, m: int, n: int, S: GeneratorSet) -> bool:
    """codes holds the m^n - 1 moves of a game on n positions mod m."""
    if all(g.is_identity() for g in S.perms):
        return _distinct_prefix_sums(codes, m, n)
    if is_prime(m):
        return _ruler(codes, m, n, S)
    pp = prime_power(m)
    return pp is not None and _lift(codes, pp[0], pp[1], n, S)


def _distinct_prefix_sums(codes: np.ndarray, m: int, n: int) -> bool:
    sums = np.zeros(len(codes), dtype=np.int64)
    for i in range(n):
        sums += (np.cumsum(_digit(codes, m, i)) % m) * m**i
    seen = np.zeros(len(codes) + 1, dtype=bool)
    seen[sums] = True
    return bool(not seen[0] and np.count_nonzero(seen) == len(codes))


def _ruler(codes: np.ndarray, p: int, n: int, S: GeneratorSet) -> bool:
    valuation = ruler_valuations(len(codes), p)
    basis_codes = codes[p ** np.arange(n, dtype=np.int64) - 1]
    if not np.array_equal(codes, basis_codes[valuation]):
        return False
    basis = [decode_config(int(c), n, p) for c in basis_codes]
    _, pivots = _rref(np.array([x.entries for x in basis], dtype=np.int64), p)
    if len(pivots) != n:
        return False
    return all(
        solve_in_span(basis[:j], act(g, x) - x) is not None
        for g in S.perms
        for j, x in enumerate(basis)
    )


def _lift(codes: np.ndarray, p: int, b: int, n: int, S: GeneratorSet) -> bool:
    m = p**b
    q = p ** (b - 1)
    block = q**n
    # Row k holds moves k*block + 1 .. (k+1)*block; the padding stands in for
    # the move (k+1)*block = m^n that the last row does not have.
    rows = np.append(codes, 0).reshape(p**n, block)
    base = rows[0, :-1]
    if not (rows[:, :-1] == base).all():
        return False
    boundary = rows[:-1, -1]
    base_digits = [_digit(base, m, i) for i in range(n)]
    boundary_digits = [_digit(boundary, m, i) for i in range(n)]
    if any((d % p).any() for d in base_digits) or any((d >= p).any() for d in boundary_digits):
        return False
    base_codes = sum((d // p) * q**i for i, d in enumerate(base_digits))
    modp_codes = sum(d * p**i for i, d in enumerate(boundary_digits))
    return _ruler(modp_codes, p, n, S) and _proves(base_codes, q, n, S)
