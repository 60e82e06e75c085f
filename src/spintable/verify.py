"""Strategy verification against the adaptive adversary.

verify_strategy first tries to prove a win from the moves' structure (see
prove.py): winners of the paper's constructions are recognized from the
moves and generators alone, never from metadata, in canonical round order
and only at the optimal length m^n - 1.  Everything else, and every loss or
witness, is decided by verify_dense, the exact method.

The dense verifier tracks, per round, the set of configurations that are
still reachable without the player ever having seen all zeros.  A strategy
wins exactly when that set empties.  The hot loop is a gather over
precomputed inverse transition tables; it runs on the compiled kernel when
available and on the NumPy fallback otherwise, with identical results.

Because the identity permutation is always available to the adversary, the
survivor set can shrink by at most one configuration per round; the dense
verifier uses that to stop early (without a witness) when a losing strategy
can no longer possibly win in its remaining moves.  The same bound makes it
cost Theta(m^2n) on any winner of optimal length, which is what the
structural proofs avoid.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import CapExceeded
from .game import DEFAULT_STATE_CAP, GameSpec, ModVector, Strategy, decode_config, encode_config
from .prove import proves_win

_COMP_CACHE_MAX = 128

ORDER_PERMUTE_MOVE = "permute-move"
ORDER_MOVE_PERMUTE = "move-permute"


@dataclass(frozen=True)
class Witness:
    """A start configuration and adversary choices that never reach zero."""

    start: ModVector
    perms: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    wins: bool
    steps_checked: int
    witness: Optional[Witness] = None


def _outer_codes(luts: np.ndarray) -> np.ndarray:
    """The (G, m^n) tables whose entry [k, t] is sum_i luts[k, i, digit_i(t)],
    where digit_i(t) is the i-th base-m digit of t and luts has shape
    (G, n, m): one nested outer sum per table, batched over k, with position
    0 innermost, which never decodes a state into digits and does no
    gathers."""
    out = luts[:, -1]
    for i in range(luts.shape[1] - 2, -1, -1):
        out = (out[:, :, None] + luts[:, i, None, :]).reshape(len(luts), -1)
    return out


def _resolve_backend(backend):
    if backend is None:
        return kernels.default_backend()
    if isinstance(backend, str):
        return kernels.get_backend(backend)
    return backend


class TransitionTables:
    """Inverse transition tables for one game spec's dense state space.

    Every table maps a state to the sum over positions of a per-position
    lookup of that position's digit, and is built as one outer sum of the
    lookups.  Permutation tables are built once, for every generator in one
    batched outer sum.  Move tables are rebuilt
    per distinct move (plain XOR when m = 2), so strategies full of unique
    random moves stay cheap.  Fully composed per-round tables are cached for
    the bounded move vocabularies of synthesized strategies.
    """

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self.m = spec.m
        self.n = spec.n
        self.size = spec.state_count
        self._codes = np.arange(self.size, dtype=np.int32) if spec.m == 2 else None
        self._residues = np.arange(spec.m, dtype=np.int32)
        self._weights = spec.m ** np.arange(spec.n, dtype=np.int32)[:, None]
        self._pinv = self._build_perm_tables()
        self._comp_cache: dict[tuple, np.ndarray] = {}

    def _build_perm_tables(self) -> np.ndarray:
        # Digit i of a state sits at position g^-1(i) of its preimage.
        targets = np.argsort([g.mapping for g in self.spec.S.perms], axis=1)
        return _outer_codes(self._residues * self._weights[targets])

    def move_table(self, y: ModVector) -> np.ndarray:
        """ainv[t] = encoding of (decode(t) - y): the pre-move state."""
        if self.m == 2:
            return self._codes ^ np.int32(encode_config(y))
        shifts = np.array(y.entries, dtype=np.int32)[:, None]
        return _outer_codes(((self._residues - shifts) % self.m * self._weights)[None])[0]

    def composed_cached(self, y: ModVector, order: str) -> Optional[np.ndarray]:
        """The cached per-round table, or None when the cache will not hold
        it (callers then take the uncomposed kernel path)."""
        key = (y.entries, order)
        cached = self._comp_cache.get(key)
        if cached is not None:
            return cached
        if len(self._comp_cache) >= _COMP_CACHE_MAX:
            return None
        comp = self._compose(y, order)
        self._comp_cache[key] = comp
        return comp

    def _compose(self, y: ModVector, order: str) -> np.ndarray:
        ainv = self.move_table(y)
        if order == ORDER_PERMUTE_MOVE:
            comp = self._pinv[:, ainv]
        elif order == ORDER_MOVE_PERMUTE:
            comp = ainv[self._pinv]
        else:
            raise ValueError(f"unknown round order {order!r}")
        return np.ascontiguousarray(comp, dtype=np.int32)


def _run(fn, args, size: int, pool: Optional[ThreadPoolExecutor], threads: int):
    if pool is None:
        fn(*args, 0, size)
        return
    step = -(-size // threads)
    bounds = [(lo, min(lo + step, size)) for lo in range(0, size, step)]
    futures = [pool.submit(fn, *args, lo, hi) for lo, hi in bounds]
    for f in futures:
        f.result()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_request(spec: GameSpec, want_witness: bool, state_cap: int, order: str):
    size = spec.state_count
    if size > state_cap:
        raise CapExceeded(f"state space {size} exceeds cap {state_cap}")
    if want_witness and order != ORDER_PERMUTE_MOVE:
        raise ValueError("witness extraction is only supported in canonical order")


def verify_strategy(
    strategy: Strategy,
    want_witness: bool = False,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    order: str = ORDER_PERMUTE_MOVE,
    threads: int = 1,
    backend=None,
    early_exit: bool = True,
    tables: Optional[TransitionTables] = None,
) -> Verdict:
    """Decide whether a strategy wins against every start and adversary line.

    A win proved from the moves' structure (canonical order only) returns
    the verdict the dense verifier would return for it; anything else goes
    to verify_dense with the remaining arguments.
    """
    _check_request(strategy.spec, want_witness, state_cap, order)
    kern = _resolve_backend(backend)
    if order == ORDER_PERMUTE_MOVE and proves_win(strategy):
        return Verdict(wins=True, steps_checked=len(strategy.moves))
    return verify_dense(
        strategy,
        want_witness,
        state_cap=state_cap,
        order=order,
        threads=threads,
        backend=kern,
        early_exit=early_exit,
        tables=tables,
    )


def verify_dense(
    strategy: Strategy,
    want_witness: bool = False,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    order: str = ORDER_PERMUTE_MOVE,
    threads: int = 1,
    backend=None,
    early_exit: bool = True,
    tables: Optional[TransitionTables] = None,
) -> Verdict:
    """Decide a strategy by exact set tracking.

    The survivor set starts as every nonzero configuration (the start is a
    checkpoint) and is advanced one move at a time; the strategy wins iff it
    empties.  With want_witness, the survivor set entering each round is kept
    as a bitmap, and a losing run walks back through those bitmaps from a
    final survivor to one explicit surviving (start, generator choices) line.
    Rounds are split over at most `threads` worker threads, capped at the
    CPUs this process may use; the verdict does not depend on the split.
    """
    spec = strategy.spec
    size = spec.state_count
    _check_request(spec, want_witness, state_cap, order)
    if tables is None:
        tables = TransitionTables(spec)
    kern = _resolve_backend(backend)

    src = np.ones(size, dtype=np.uint8)
    src[0] = 0
    dst = np.empty_like(src)
    alive = size - 1
    if alive == 0:
        return Verdict(wins=True, steps_checked=0)

    n_moves = len(strategy.moves)
    survivors_log: list[np.ndarray] = []
    threads = min(threads, _usable_cpus())
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for k, y in enumerate(strategy.moves, start=1):
            if want_witness:
                survivors_log.append(np.packbits(src))
            comp = tables.composed_cached(y, order)
            if comp is not None:
                _run(kern.step, (src, dst, comp), size, pool, threads)
            elif order == ORDER_PERMUTE_MOVE:
                ainv = tables.move_table(y)
                _run(kern.step_indirect, (src, dst, tables._pinv, ainv), size, pool, threads)
            else:
                _run(kern.step, (src, dst, tables._compose(y, order)), size, pool, threads)
            dst[0] = 0
            alive = int(np.count_nonzero(dst))
            src, dst = dst, src
            if alive == 0:
                return Verdict(wins=True, steps_checked=k)
            if early_exit and not want_witness and alive > n_moves - k:
                # With the identity available, at most one configuration can
                # be eliminated per round, so this strategy cannot recover.
                return Verdict(wins=False, steps_checked=k)
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if not want_witness:
        return Verdict(wins=False, steps_checked=n_moves)
    witness = _reconstruct_witness(strategy, tables, src, survivors_log)
    return Verdict(wins=False, steps_checked=n_moves, witness=witness)


def _reconstruct_witness(
    strategy: Strategy, tables: TransitionTables, final: np.ndarray, survivors_log
) -> Witness:
    """Walk back from the first final survivor.  A state t surviving round k
    has a live predecessor pinv[g, u] in round k's entering bitmap, where u
    is t with the move undone; the first live generator g is taken, so only
    G bits of each bitmap are read."""
    n, m = strategy.spec.n, strategy.spec.m
    t = int(np.flatnonzero(final)[0])
    perms_rev: list[int] = []
    for y, packed in zip(reversed(strategy.moves), reversed(survivors_log)):
        # u = encode_config(decode_config(t) - y), digit by digit on ints:
        # going through ModVector costs several times more per round.
        u, rest, weight = 0, t, 1
        for e in y.entries:
            rest, digit = divmod(rest, m)
            u += (digit - e) % m * weight
            weight *= m
        # np.packbits keeps state i at bit 7 - i % 8 of byte i // 8.
        for g, pred in enumerate(tables._pinv[:, u].tolist()):
            if packed.item(pred >> 3) >> (7 - (pred & 7)) & 1:
                break
        perms_rev.append(g)
        t = pred
    return Witness(start=decode_config(t, n, m), perms=tuple(reversed(perms_rev)))


@dataclass(frozen=True)
class BenchResult:
    backend: str
    wins: bool
    steps: int
    states: int
    generators: int
    seconds: float
    transitions: int
    transitions_per_second: float
    states_per_second: float


def bench_verify(
    strategy: Strategy,
    backend=None,
    threads: int = 1,
    repeat: int = 3,
    state_cap: int = DEFAULT_STATE_CAP,
) -> BenchResult:
    """Time dense verification; reports best-of-`repeat` kernel throughput."""
    kern = _resolve_backend(backend)
    tables = TransitionTables(strategy.spec)
    best = None
    verdict = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        verdict = verify_dense(
            strategy,
            state_cap=state_cap,
            threads=threads,
            backend=kern,
            tables=tables,
            early_exit=False,
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    size = strategy.spec.state_count
    gens = len(strategy.spec.S)
    transitions = verdict.steps_checked * size * gens
    return BenchResult(
        backend=kern.NAME,
        wins=verdict.wins,
        steps=verdict.steps_checked,
        states=size,
        generators=gens,
        seconds=best,
        transitions=transitions,
        transitions_per_second=transitions / best if best > 0 else float("inf"),
        states_per_second=verdict.steps_checked * size / best if best > 0 else float("inf"),
    )
