import functools
import hashlib
import itertools
import random
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import rot_spec
from oracles import belief_step, configs, game_tree_wins, move_permute_wins
from spintable import (
    CapExceeded,
    GameSpec,
    Strategy,
    decide,
    generator_set,
    mod_vector,
    simulate_trace,
    synth,
    verify_dense,
    verify_strategy,
)
from spintable import io as sio
from spintable import verify
from spintable.game import act, decode_config, encode_config
from spintable.verify import ORDER_MOVE_PERMUTE, ORDER_PERMUTE_MOVE


def random_strategy(spec: GameSpec, length: int, rng: random.Random) -> Strategy:
    moves = tuple(
        mod_vector(spec.m, [rng.randrange(spec.m) for _ in range(spec.n)])
        for _ in range(length)
    )
    return Strategy(spec, moves)


ORACLE_SPECS = [
    rot_spec(2, 2),
    rot_spec(4, 2),
    rot_spec(2, 4),
    rot_spec(3, 3),
    rot_spec(2, 3),
    rot_spec(6, 2),
    GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]])),
    GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])),
    GameSpec(3, 2, generator_set(3, [[0, 1, 2]])),
]


def test_golden_strategy_wins(backend):
    strategy = synth(rot_spec(4, 2))
    verdict = verify_strategy(strategy, backend=backend)
    assert verdict.wins
    assert verdict.steps_checked == 15
    # The win above is proved from the moves' structure; the kernel of this
    # backend must reach the same verdict on its own.
    assert verify_dense(strategy, backend=backend) == verdict


def test_empty_strategy_wins_for_unit_modulus(backend):
    spec = rot_spec(3, 1)
    verdict = verify_strategy(Strategy(spec, ()), backend=backend)
    assert verdict.wins
    assert verdict.steps_checked == 0


def test_single_move_loses_with_witness(backend):
    spec = rot_spec(2, 2)
    strategy = Strategy(spec, (mod_vector(2, [1, 1]),))
    verdict = verify_strategy(strategy, want_witness=True, backend=backend)
    assert not verdict.wins
    assert verdict.witness is not None
    assert verdict.witness.start.entries == (0, 1)
    replay = simulate_trace(spec, verdict.witness.start, strategy.moves, verdict.witness.perms)
    assert not replay.won


def test_state_cap():
    spec = rot_spec(4, 2)
    with pytest.raises(CapExceeded):
        verify_strategy(Strategy(spec, ()), state_cap=8)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"n{s.n}m{s.m}g{len(s.S)}")
def test_verifier_matches_game_tree_oracle(spec):
    rng = random.Random(20_000 + spec.n * 100 + spec.m)
    gens = [g.mapping for g in spec.S.perms]
    for _ in range(25):
        strategy = random_strategy(spec, rng.randrange(0, 13), rng)
        expected = game_tree_wins(spec.n, spec.m, gens, [y.entries for y in strategy.moves])
        got = verify_strategy(strategy)
        assert got.wins == expected
        alt = verify_strategy(strategy, order=ORDER_MOVE_PERMUTE)
        assert alt.wins == expected


def test_turn_order_equivalence_on_random_instances():
    rng = random.Random(99)
    for spec in ORACLE_SPECS:
        for _ in range(15):
            strategy = random_strategy(spec, rng.randrange(0, 18), rng)
            a = verify_strategy(strategy, order=ORDER_PERMUTE_MOVE).wins
            b = verify_strategy(strategy, order=ORDER_MOVE_PERMUTE).wins
            assert a == b


def test_backends_agree(backend):
    rng = random.Random(5)
    spec = rot_spec(4, 2)
    for _ in range(10):
        strategy = random_strategy(spec, rng.randrange(0, 40), rng)
        base = verify_strategy(strategy, early_exit=False)
        got = verify_strategy(strategy, backend=backend, early_exit=False)
        assert got == base


def test_thread_count_does_not_change_result(monkeypatch):
    monkeypatch.setattr(verify, "MIN_SLICE_STATES", 1)
    rng = random.Random(11)
    spec = rot_spec(4, 2)
    for _ in range(5):
        strategy = random_strategy(spec, 20, rng)
        ref = verify_strategy(strategy, want_witness=True, threads=1)
        for threads in (2, 4):
            assert verify_strategy(strategy, want_witness=True, threads=threads) == ref


def test_thread_count_stable_on_uncached_move_path(backend, monkeypatch):
    # 300 random moves, nearly all distinct; the verdict must not depend on
    # how the state space is partitioned.
    monkeypatch.setattr(verify, "MIN_SLICE_STATES", 1)
    rng = random.Random(19)
    spec = rot_spec(12, 2)
    strategy = random_strategy(spec, 300, rng)
    ref = verify_strategy(strategy, backend=backend, threads=1, early_exit=False)
    got = verify_strategy(strategy, backend=backend, threads=3, early_exit=False)
    assert got == ref


def test_early_exit_matches_full_run():
    rng = random.Random(13)
    spec = rot_spec(3, 3)
    for _ in range(10):
        strategy = random_strategy(spec, rng.randrange(0, 60), rng)
        fast = verify_strategy(strategy, early_exit=True)
        full = verify_strategy(strategy, early_exit=False)
        assert fast.wins == full.wins


def test_witness_requires_canonical_order():
    spec = rot_spec(2, 2)
    with pytest.raises(ValueError):
        verify_strategy(Strategy(spec, ()), want_witness=True, order=ORDER_MOVE_PERMUTE)


def test_witnesses_replay_to_zero_free_traces():
    rng = random.Random(17)
    for spec in [rot_spec(2, 3), rot_spec(3, 2), rot_spec(2, 6)]:
        for _ in range(5):
            strategy = random_strategy(spec, 2 * spec.state_count, rng)
            verdict = verify_strategy(strategy, want_witness=True)
            assert not verdict.wins
            replay = simulate_trace(
                spec, verdict.witness.start, strategy.moves, verdict.witness.perms
            )
            assert not replay.won
            assert all(not c.is_zero() for c in replay.configs)


# sha256 of dump_verdict, witness included.  The bytes fix which line is
# reported: the walk back from the first final survivor that takes the first
# live generator each round.  The rot-12-2 strategy plays 290 distinct moves
# on the kernel's m = 2 path; the other two take its block path.
PINNED_WITNESS_VERDICTS = {
    "rot-5-5-truncated": "9a7a586a16e3c337c42687e773c74651c7e6e55f3e3cb3561034fa99c2086dbc",
    "rot-12-2-random-300": "812dfa93f21d7b7c284fa9fbb7ca8505d5704325e9cd302ead713ce8ba732ef2",
    "rot-2-6-random-40": "95ceee1726483129b75750f04e258006edf23207949ca83b3ef8ff6873610715",
}


def _pinned_witness_strategy(name: str) -> Strategy:
    if name == "rot-5-5-truncated":
        spec = rot_spec(5, 5)
        return Strategy(spec, synth(spec).moves[:-1])
    if name == "rot-12-2-random-300":
        return random_strategy(rot_spec(12, 2), 300, random.Random(12))
    return random_strategy(rot_spec(2, 6), 40, random.Random(29))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(PINNED_WITNESS_VERDICTS))
def test_witness_verdict_bytes_are_pinned(backend, name, threads, monkeypatch):
    monkeypatch.setattr(verify, "MIN_SLICE_STATES", 1)
    strategy = _pinned_witness_strategy(name)
    verdict = verify_strategy(strategy, want_witness=True, backend=backend, threads=threads)
    doc = sio.dump_verdict(verdict).encode()
    assert hashlib.sha256(doc).hexdigest() == PINNED_WITNESS_VERDICTS[name]


def test_witness_with_40320_generators(backend):
    # Every permutation of 8 positions: more generators than a 16-bit index
    # holds.  Three moves cannot win against the full symmetric group.
    spec = GameSpec(8, 2, generator_set(8, itertools.permutations(range(8))))
    assert len(spec.S) == 40320
    strategy = random_strategy(spec, 3, random.Random(8))
    verdict = verify_strategy(strategy, want_witness=True, backend=backend)
    assert not verdict.wins
    replay = simulate_trace(spec, verdict.witness.start, strategy.moves, verdict.witness.perms)
    assert not replay.won
    assert all(not c.is_zero() for c in replay.configs)


def test_dense_survivors_match_sparse_belief_steps(backend):
    # Drive the oracle's sparse belief step alongside the dense kernel and
    # require identical survivor sets, and the kernel's live count, after
    # every round.
    from spintable import kernels
    from spintable.verify import TransitionTables

    rng = random.Random(23)
    for spec in [rot_spec(3, 2), rot_spec(2, 4), ORACLE_SPECS[6]]:
        strategy = random_strategy(spec, 8, rng)
        tables = TransitionTables(spec)
        kern = kernels.get_backend(backend)
        size = spec.state_count
        gens = [g.mapping for g in spec.S.perms]
        src = np.ones(size, dtype=np.uint8)
        src[0] = 0
        belief = set(configs(spec.n, spec.m)[1:])
        for y in strategy.moves:
            belief = belief_step(belief, y.entries, gens, spec.m)
            dst = np.empty_like(src)
            move = np.array(y.entries, dtype=np.int32)
            alive = kern.advance(src, dst, tables._pinv, move, spec.m, 0, size)
            assert alive == len(belief) + int(dst[0])
            dst[0] = 0
            src = dst
            survivors = {decode_config(t, spec.n, spec.m).entries for t in np.flatnonzero(src)}
            assert survivors == belief


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"n{s.n}m{s.m}g{len(s.S)}")
def test_steps_checked_is_the_round_the_oracle_empties(spec):
    # Without early exit, a win reports the first round after which no
    # configuration survives, and a loss the strategy length, in both round
    # orders.  Move-permute survivors are the generator images of the
    # canonical ones, so both orders empty in the same round.
    # Random strategies rarely win, so winners also come from a synthesized
    # winner between a random prefix and a random suffix.
    rng = random.Random(40_000 + spec.n * 100 + spec.m)
    gens = [g.mapping for g in spec.S.perms]
    strategies = [
        random_strategy(spec, rng.randrange(0, 2 * spec.state_count), rng) for _ in range(10)
    ]
    if decide(spec).solvable:
        winner = synth(spec).moves
        for _ in range(5):
            prefix = random_strategy(spec, rng.randrange(0, spec.state_count), rng).moves
            suffix = random_strategy(spec, rng.randrange(0, 4), rng).moves
            strategies.append(Strategy(spec, prefix + winner + suffix))
    for strategy in strategies:
        belief = set(configs(spec.n, spec.m)[1:])
        expected = len(strategy.moves)
        for k, y in enumerate(strategy.moves, start=1):
            belief = belief_step(belief, y.entries, gens, spec.m)
            if not belief:
                expected = k
                break
        for order in (ORDER_PERMUTE_MOVE, ORDER_MOVE_PERMUTE):
            got = verify_dense(strategy, order=order, early_exit=False)
            assert got.steps_checked == expected
            assert got.wins == (not belief)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for ThreadPoolExecutor: runs work inline and starts no
    thread.  Returns the lists of worker counts asked for and of slice
    lengths submitted."""
    requested, slices = [], []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def submit(self, fn, *args):
            slices.append(args[-1] - args[-2])
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(verify, "ThreadPoolExecutor", InlinePool)
    return requested, slices


def test_threads_are_capped_at_usable_cpus(monkeypatch, inline_pool):
    # A pool is asked for at most as many workers as the process has CPUs,
    # whatever --threads says.  The stub runs work inline and starts no
    # thread, so an uncapped request is only recorded.
    import os

    monkeypatch.setattr(verify, "MIN_SLICE_STATES", 1)
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    strategy = random_strategy(rot_spec(4, 2), 20, random.Random(41))
    got = verify_dense(strategy, threads=10**6, early_exit=False)
    assert got == verify_dense(strategy, threads=1, early_exit=False)
    requested, _ = inline_pool
    assert all(workers <= usable for workers in requested)
    assert len(requested) == (usable > 1)


@pytest.mark.parametrize("min_states", [None, 8, 5])
def test_rounds_split_only_into_slices_of_min_states(monkeypatch, inline_pool, min_states):
    # A round too small to give every thread MIN_SLICE_STATES states is not
    # split at all; a larger one is split into slices of at least that many.
    if min_states is not None:
        monkeypatch.setattr(verify, "MIN_SLICE_STATES", min_states)
    strategy = random_strategy(rot_spec(4, 2), 20, random.Random(43))
    got = verify_dense(strategy, threads=4, early_exit=False)
    assert got == verify_dense(strategy, threads=1, early_exit=False)
    requested, slices = inline_pool
    assert len(requested) == (min_states is not None and verify._usable_cpus() > 1)
    assert all(n >= verify.MIN_SLICE_STATES for n in slices)


def _reference_round(src, table):
    """Whether any generator's predecessor is live, per column of a (G, size)
    table."""
    return (src[table] != 0).any(axis=0).astype(np.uint8)


# (n, m) for the kernel contract: n = 1, the m = 2 XOR path, m^n below and
# above the compiled kernel's 4096-state offset block, a 70-state block, and
# m > 4096, where no digit is tabulated.
KERNEL_SHAPES = [(1, 7), (8, 2), (13, 2), (5, 3), (9, 3), (2, 70), (1, 5000)]


@functools.lru_cache(maxsize=None)
def _undone_states(n, m, entries):
    """u(t) = encode(decode(t) - y) for every state t, through ModVectors."""
    y = mod_vector(m, entries)
    return np.array([encode_config(decode_config(t, n, m) - y) for t in range(m**n)])


def _contract_slices(n, m):
    """Whole, empty and edge slices, and slices across the blocks of low
    digits that the compiled kernel tabulates."""
    size = m**n
    block = max(m**k for k in range(n + 1) if m**k <= 4096)
    cuts = [(0, size), (0, 0), (size // 2, size // 2), (size - 1, size), (1, size - 1)]
    cuts.append((size // 3, 2 * size // 3))
    if 3 <= block < size:
        cuts.append((block - 3, min(size, block + 5)))
    return cuts


@pytest.mark.parametrize("G", [1, 3, 7])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.9])
def test_kernel_contract_matches_numpy_reference(backend, G, density):
    # dst[t] = OR_g src[pinv[g, u(t)]] on exactly the slice [t0, t1), and the
    # return value counts the live states written there.
    from spintable import kernels

    kern = kernels.get_backend(backend)
    rng = np.random.default_rng(G * 10 + int(density * 10))
    for n, m in KERNEL_SHAPES:
        size = m**n
        entries = tuple(random.Random(n * 10_000 + m).randrange(m) for _ in range(n))
        src = (rng.random(size) < density).astype(np.uint8)
        pinv = rng.integers(0, size, (G, size), dtype=np.int32)
        live = _reference_round(src, pinv[:, _undone_states(n, m, entries)])
        move = np.array(entries, dtype=np.int32)
        for t0, t1 in _contract_slices(n, m):
            sl = slice(t0, t1)
            dst = np.full(size, 2, dtype=np.uint8)
            count = kern.advance(src, dst, pinv, move, m, t0, t1)
            assert (dst[sl] == live[sl]).all()
            assert (np.delete(dst, np.arange(t0, t1)) == 2).all()
            assert count == np.count_nonzero(dst[sl])


def test_compiled_kernel_rejects_bad_arguments():
    # Item type, dimensionality, contiguity, agreeing shapes, the move and
    # the slice bounds are all checked before anything is read or written.
    from spintable import kernels

    if "compiled" not in kernels.available_backends():
        pytest.skip("compiled kernel not built")
    kern = kernels.get_backend("compiled")
    rng = np.random.default_rng(3)
    m, size = 4, 64
    src = (rng.random(size) < 0.5).astype(np.uint8)
    pinv = rng.integers(0, size, (3, size), dtype=np.int32)
    move = np.array([1, 0, 3], dtype=np.int32)
    dst = np.full(size, 2, dtype=np.uint8)
    readonly = np.zeros(size, dtype=np.uint8)
    readonly.setflags(write=False)

    def call(src=src, dst=dst, pinv=pinv, move=move, m=m, t0=0, t1=size):
        return lambda: kern.advance(src, dst, pinv, move, m, t0, t1)

    bad_calls = {
        TypeError: [
            call(src=src.astype(np.int8)),
            call(src=src.astype(bool)),
            call(pinv=pinv.astype(np.int64)),
            call(pinv=pinv.astype(np.uint32)),
            call(move=move.astype(np.int16)),
            call(move=move.astype(np.int64)),
            call(move=move.astype(np.uint32)),
            call(t0=0.0),
            call(m=4.0),
            call(pinv=[[0] * size]),
            call(move=[1, 0, 3]),
        ],
        ValueError: [
            call(pinv=pinv[0]),
            call(pinv=pinv[:, :, None]),
            call(pinv=np.asfortranarray(pinv)),
            call(src=src[::2], dst=dst[::2], pinv=pinv[:, ::2], t1=size // 2),
            call(dst=dst[:-1], t1=size - 1),
            call(src=src[:-1]),
            call(pinv=pinv[:, :-1], t1=size - 1),
            call(move=move[:2]),
            call(move=np.array([1, 0, 3, 0], dtype=np.int32)),
            call(move=move[None, :]),
            call(move=np.array([1, 0, 4], dtype=np.int32)),
            call(move=np.array([1, -1, 3], dtype=np.int32)),
            call(m=2),
            call(m=8),
            call(m=0),
            call(m=-4),
            call(t1=size + 1),
            call(t0=-1),
            call(t0=5, t1=4),
            call(dst=readonly),
        ],
    }
    for exc, calls in bad_calls.items():
        for bad in calls:
            with pytest.raises(exc):
                bad()
    assert (dst == 2).all()
    assert not readonly.any()


@pytest.mark.parametrize(
    "n,m,gens",
    [
        pytest.param(5, 2, None, id="5-2"),
        pytest.param(4, 3, None, id="4-3"),
        pytest.param(3, 5, None, id="3-5"),
        pytest.param(3, 6, None, id="3-6"),
        pytest.param(2, 27, None, id="2-27"),
        pytest.param(4, 3, list(itertools.permutations(range(4))), id="sym4-3"),
    ],
)
def test_transition_tables_match_decoded_reference(n, m, gens):
    # Moves: every backend's kernel undoes the move as u(t) =
    # encode(decode(t) - y), read back one bit of u at a time through an
    # identity table.  Permutation tables: pinv[g, t] = encode(g^-1 applied
    # to decode(t)), for the rotations or for the given generators.
    from spintable import kernels
    from spintable.perm import inverse
    from spintable.verify import TransitionTables

    spec = rot_spec(n, m) if gens is None else GameSpec(n, m, generator_set(n, gens))
    tables = TransitionTables(spec)
    size = spec.state_count
    configs = [decode_config(t, n, m) for t in range(size)]
    identity = np.arange(size, dtype=np.int32)
    rng = random.Random(n * 100 + m)
    moves = [[0] * n, [m - 1] * n] + [[rng.randrange(m) for _ in range(n)] for _ in range(3)]
    for entries in moves:
        y = mod_vector(m, entries)
        move = np.array(entries, dtype=np.int32)
        for name in kernels.available_backends():
            kern = kernels.get_backend(name)
            u = np.zeros(size, dtype=np.int64)
            for bit in range((size - 1).bit_length()):
                plane = (identity >> bit & 1).astype(np.uint8)
                dst = np.empty(size, dtype=np.uint8)
                kern.advance(plane, dst, identity[None, :], move, m, 0, size)
                u |= dst.astype(np.int64) << bit
            assert u.tolist() == [encode_config(x - y) for x in configs]
    assert tables._pinv.dtype.name == "int32"
    for gi, g in enumerate(spec.S.perms):
        g_inv = inverse(g)
        assert tables._pinv[gi].tolist() == [encode_config(act(g_inv, x)) for x in configs]


# With one position mod 3 and only the identity, the one-move strategy (1)
# loses, but replaying y_1 = 1 as a canonical round on the reduced start set
# would win it, so an off-by-one in the reduction shows.
@pytest.mark.parametrize(
    "spec",
    ORACLE_SPECS + [GameSpec(1, 3, generator_set(1, [[0]]))],
    ids=lambda s: f"n{s.n}m{s.m}g{len(s.S)}",
)
def test_move_permute_reduction_matches_belief_oracle(backend, spec):
    # verify_dense plays move-permute order as canonical play on y_2..y_L
    # from every state except 0 and y_1; the oracle plays the order itself.
    # Seeded random strategies, synthesized winners with and without a
    # random prefix, and the empty, one-move and y_1 = 0 strategies.
    rng = random.Random(50_000 + spec.n * 100 + spec.m)
    gens = [g.mapping for g in spec.S.perms]
    zero = [0] * spec.n
    strategies = [
        random_strategy(spec, rng.randrange(0, 2 * spec.state_count), rng) for _ in range(12)
    ]
    strategies += [Strategy(spec, ()), Strategy(spec, (mod_vector(spec.m, [1] * spec.n),))]
    strategies += [Strategy(spec, (mod_vector(spec.m, zero),) + random_strategy(spec, 6, rng).moves)]
    strategies += [Strategy(spec, (mod_vector(spec.m, zero),))]
    if decide(spec).solvable:
        winner = synth(spec).moves
        prefix = random_strategy(spec, rng.randrange(1, spec.state_count), rng).moves
        strategies += [Strategy(spec, winner), Strategy(spec, prefix + winner)]
    for strategy in strategies:
        moves = [y.entries for y in strategy.moves]
        wins, empties_at = move_permute_wins(spec.n, spec.m, gens, moves)
        full = verify_dense(strategy, order=ORDER_MOVE_PERMUTE, backend=backend, early_exit=False)
        assert (full.wins, full.steps_checked) == (wins, empties_at)
        assert verify_dense(strategy, order=ORDER_MOVE_PERMUTE, backend=backend).wins == wins
