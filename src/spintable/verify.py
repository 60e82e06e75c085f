"""Strategy verification against the adaptive adversary.

verify_strategy first tries to prove a win from the moves' structure (see
prove.py): winners of the paper's constructions are recognized from the
moves and generators alone, never from metadata, in canonical round order
and only at the optimal length m^n - 1.  Everything else, and every loss or
witness, is decided by verify_dense, the exact method.

The dense verifier tracks, per round, the set of configurations that are
still reachable without the player ever having seen all zeros.  A strategy
wins exactly when that set empties.  Every round is one kernel call (see
kernels.py; compiled or NumPy, with identical results) that undoes the move
on each state's code, gathers predecessors from the per-generator inverse
permutation tables and returns the survivor count: no per-move table is
built or cached.  Move-permute order is reduced to canonical rounds.

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
from ._kernels_py import digit_sums
from .errors import CapExceeded
from .game import DEFAULT_STATE_CAP, GameSpec, ModVector, Strategy, decode_config, encode_config
from .prove import proves_win

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


def _resolve_backend(backend):
    if backend is None:
        return kernels.default_backend()
    if isinstance(backend, str):
        return kernels.get_backend(backend)
    return backend


class TransitionTables:
    """Inverse permutation tables for one game spec's dense state space:
    pinv[g, t] encodes g^-1 applied to decode(t), for every generator from
    one batched outer sum of per-position digit lookups.  Moves need no
    tables: the kernel undoes a round's move itself."""

    def __init__(self, spec: GameSpec):
        self.spec = spec
        # Digit i of a state sits at position g^-1(i) of its preimage.
        targets = np.argsort([g.mapping for g in spec.S.perms], axis=1)
        weights = spec.m ** np.arange(spec.n, dtype=np.int32)
        self._pinv = digit_sums(np.arange(spec.m, dtype=np.int32) * weights[targets][:, :, None])


# A round is split over threads only when every slice gets at least this many
# states.  Two threads against one, per round of a random rotation strategy on
# a 2-vCPU VM: 3.1x the time at 19 683 states, 1.04x at 131 072 (two slices of
# 65 536), 0.91x at 177 147 and 0.78x at 262 144.
MIN_SLICE_STATES = 1 << 17


def _run(fn, args, size: int, pool: Optional[ThreadPoolExecutor], slices: int) -> int:
    """Sum fn over `slices` near-equal contiguous slices of [0, size)."""
    if pool is None:
        return fn(*args, 0, size)
    edges = [size * i // slices for i in range(slices + 1)]
    futures = [pool.submit(fn, *args, lo, hi) for lo, hi in zip(edges, edges[1:])]
    return sum(f.result() for f in futures)


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
    if order not in (ORDER_PERMUTE_MOVE, ORDER_MOVE_PERMUTE):
        raise ValueError(f"unknown round order {order!r}")
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
    A round is split over at most `threads` worker threads, capped at the
    CPUs this process may use, and only when every slice gets at least
    MIN_SLICE_STATES states; the verdict does not depend on the split.

    Move-permute order is reduced to canonical rounds.  Its round k checks
    x_k = g(x_{k-1} + y_k), which is zero exactly when z_k = x_{k-1} + y_k
    is, and z_{k+1} = g(z_k) + y_{k+1}.  So its first round leaves every z_1
    but 0 and y_1, and rounds 2..L are canonical rounds on y_2..y_L.
    """
    spec = strategy.spec
    size = spec.state_count
    _check_request(spec, want_witness, state_cap, order)
    if size == 1:
        return Verdict(wins=True, steps_checked=0)
    if tables is None:
        tables = TransitionTables(spec)
    kern = _resolve_backend(backend)

    src = np.ones(size, dtype=np.uint8)
    src[0] = 0
    dst = np.empty_like(src)
    n_moves = len(strategy.moves)
    survivors_log: list[np.ndarray] = []
    rows: dict[tuple, np.ndarray] = {}  # one int32 digit row per distinct move
    slices = max(1, min(threads, _usable_cpus(), size // MIN_SLICE_STATES))
    pool = ThreadPoolExecutor(max_workers=slices) if slices > 1 else None
    try:
        for k, y in enumerate(strategy.moves, start=1):
            if k == 1 and order == ORDER_MOVE_PERMUTE:
                src[encode_config(y)] = 0
                alive = int(np.count_nonzero(src))
            else:
                if want_witness:
                    survivors_log.append(np.packbits(src))
                row = rows.get(y.entries)
                if row is None:
                    row = rows[y.entries] = np.array(y.entries, dtype=np.int32)
                alive = _run(kern.advance, (src, dst, tables._pinv, row, spec.m), size, pool, slices)
                if dst[0]:
                    dst[0] = 0
                    alive -= 1
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
