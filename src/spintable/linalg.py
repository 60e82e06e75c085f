"""Exact linear algebra over Z_p, plus the Z_m vectors the game is played with.

Everything here is small and exact: matrices are NumPy int64 arrays reduced
mod p after every operation, pivoting always takes the lowest usable index,
and kernel/solution bases are the canonical reduced-echelon ones so results
are reproducible run to run.  The invariant-chain basis of a p-group grows
one vector at a time through a single quotient map: the first canonical
vector that every generator fixes modulo the span of those chosen so far.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .perm import GeneratorSet


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


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m % p, pivots


def _kernel_basis(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Canonical basis of {x : mat @ x = 0 (mod p)}, one vector per free column."""
    cols = mat.shape[1]
    r, pivots = _rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, pc in enumerate(pivots):
            v[pc] = (-r[row, f]) % p
        basis.append(v % p)
    return basis


@dataclass(frozen=True)
class ZpBasis:
    """An ordered basis x_0 .. x_{n-1} of Z_p^n."""

    p: int
    vectors: tuple[ModVector, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        n = len(self.vectors)
        for v in self.vectors:
            if v.m != self.p or v.n != n:
                raise ValueError("basis vectors must be length-n vectors mod p")
        mat = np.array([v.entries for v in self.vectors], dtype=np.int64).T
        _, pivots = _rref(mat, self.p)
        if len(pivots) != n:
            raise ValueError("vectors do not form a basis (rank deficient)")

    @property
    def n(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        """Columns are the basis vectors."""
        return np.array([v.entries for v in self.vectors], dtype=np.int64).T


def binomial_basis(p: int, n: int) -> ZpBasis:
    """Basis vectors x_j with entry i = C(i, j) mod p, for n a power of p.

    The matrix with these columns is lower triangular with unit diagonal, so
    the vectors are a basis without further checking; they are also exactly
    the distinct moves used by the ruler-schedule synthesizer on rotation
    games.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = n
    while k > 1:
        if k % p != 0:
            raise ValueError(f"{n} is not a power of {p}")
        k //= p
    table = np.zeros((n, n), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, n):
        for j in range(1, i + 1):
            table[i, j] = (table[i - 1, j - 1] + table[i - 1, j]) % p
    vectors = tuple(ModVector(p, tuple(int(x) for x in table[:, j])) for j in range(n))
    return ZpBasis(p, vectors)


def solve_in_span(vectors: Sequence[ModVector], target: ModVector) -> Optional[list[int]]:
    """Coefficients expressing target over the given vectors, or None.

    Gaussian elimination over Z_p with lowest-index pivoting; when the
    vectors are dependent, free coefficients are set to zero, so the answer
    is deterministic.  None is the distinguished "not in span" outcome.
    """
    p = target.m
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    n = target.n
    k = len(vectors)
    for v in vectors:
        if v.m != p or v.n != n:
            raise ValueError("vectors must share the target's modulus and length")
    if k == 0:
        return [] if target.is_zero() else None
    a = np.zeros((n, k + 1), dtype=np.int64)
    for j, v in enumerate(vectors):
        a[:, j] = v.entries
    a[:, k] = target.entries
    r, pivots = _rref(a, p)
    if k in pivots:
        return None
    coeffs = [0] * k
    for row, pc in enumerate(pivots):
        coeffs[pc] = int(r[row, k])
    return coeffs


def _fixed_modulo(S: GeneratorSet, chain: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis, as rows, of the vectors that vanish on the chain's
    pivot columns and that every generator fixes modulo the chain's span.

    Row-reduce the chain to R with pivot columns P and free columns F.  A
    vector w lies in the span iff w_F = R_F^T w_P, so Q w = w_F - R_F^T w_P
    is the quotient map.  Since P_g e_f = e_{g(f)}, generator g acts on the
    quotient as Q[:, g(F)], and the fixed vectors are the kernel of the
    stacked Q[:, g(F)] - I, lifted onto F.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r, pivots = _rref(chain, p)
    free = [c for c in range(S.n) if c not in pivots]
    eye = np.eye(len(free), dtype=np.int64)
    quotient = np.zeros((len(free), S.n), dtype=np.int64)
    quotient[:, free] = eye
    quotient[:, pivots] = -r[: len(pivots), free].T
    images = np.array([g.mapping for g in S.perms])[:, free]
    actions = quotient[:, images].transpose(1, 0, 2) - eye
    kernel = _kernel_basis(actions.reshape(-1, len(free)) % p, p)
    lifts = np.zeros((len(kernel), S.n), dtype=np.int64)
    lifts[:, free] = np.array(kernel, dtype=np.int64).reshape(len(kernel), len(free))
    return lifts


def fixed_space(S: GeneratorSet, p: int) -> list[ModVector]:
    """Basis of the vectors in Z_p^n fixed by every generator in S: the
    quotient by the empty chain.  Fixed by S is the same as fixed by the
    whole generated group.  May be empty."""
    empty = np.zeros((0, S.n), dtype=np.int64)
    return [ModVector(p, tuple(v)) for v in _fixed_modulo(S, empty, p).tolist()]


def fixed_chain_basis(S: GeneratorSet, p: int) -> ZpBasis:
    """An ordered basis where each generator moves x_j only within the span
    of x_0 .. x_{j-1}: x_j is the first canonical vector that every
    generator fixes modulo x_0 .. x_{j-1}.

    Such a vector exists at every step iff the generated group is a p-group
    (a group acting unitriangularly on a flag is one), so any other group
    raises ValueError at the first step where none is fixed.
    """
    chain = np.zeros((0, S.n), dtype=np.int64)
    for _ in range(S.n):
        fixed = _fixed_modulo(S, chain, p)
        if not len(fixed):
            raise ValueError(f"no fixed vector in a quotient; the group is not a {p}-group")
        chain = np.concatenate([chain, fixed[:1]])
    return ZpBasis(p, tuple(ModVector(p, tuple(v)) for v in chain.tolist()))
