import hashlib
import itertools
import random

import pytest

from conftest import rot_spec
from oracles import game_tree_wins
from spintable import (
    BeliefState,
    CapExceeded,
    GameSpec,
    Strategy,
    belief_step,
    generator_set,
    mod_vector,
    simulate_trace,
    synth,
    verify_dense,
    verify_strategy,
)
from spintable import io as sio
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


def test_thread_count_does_not_change_result():
    rng = random.Random(11)
    spec = rot_spec(4, 2)
    for _ in range(5):
        strategy = random_strategy(spec, 20, rng)
        ref = verify_strategy(strategy, want_witness=True, threads=1)
        for threads in (2, 4):
            assert verify_strategy(strategy, want_witness=True, threads=threads) == ref


def test_thread_count_stable_on_uncached_move_path(backend):
    # More than 128 distinct moves forces the on-the-fly table path; the
    # verdict must not depend on how the state space is partitioned.
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
# live generator each round.  The rot-12-2 strategy has 290 distinct moves,
# more than the composed-table cache holds, so it runs the uncached path.
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
def test_witness_verdict_bytes_are_pinned(backend, name, threads):
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
    # Drive the spec-level belief-step operation alongside the dense kernel
    # and require identical survivor sets after every round.
    import numpy as np

    from spintable import kernels
    from spintable.verify import TransitionTables

    rng = random.Random(23)
    for spec in [rot_spec(3, 2), rot_spec(2, 4), ORACLE_SPECS[6]]:
        strategy = random_strategy(spec, 8, rng)
        tables = TransitionTables(spec)
        kern = kernels.get_backend(backend)
        size = spec.state_count
        src = np.ones(size, dtype=np.uint8)
        src[0] = 0
        B = BeliefState.full(spec.n, spec.m)
        for i, y in enumerate(strategy.moves):
            B = belief_step(B, y, spec.S)
            dst = np.empty_like(src)
            if i % 2 == 0:
                kern.step(src, dst, tables._compose(y, ORDER_PERMUTE_MOVE), 0, size)
            else:
                kern.step_indirect(src, dst, tables._pinv, tables.move_table(y), 0, size)
            dst[0] = 0
            src = dst
            assert set(np.flatnonzero(src).tolist()) == set(B.codes)


def _kernel_inputs(rng, size, G, density):
    import numpy as np

    src = (rng.random(size) < density).astype(np.uint8)
    comp = rng.integers(0, size, (G, size), dtype=np.int32)
    ainv = rng.permutation(size).astype(np.int32)
    return src, comp, ainv


def _reference_round(src, table):
    """Whether any generator's predecessor is live, per column of a (G, size)
    table."""
    import numpy as np

    return (src[table] != 0).any(axis=0).astype(np.uint8)


@pytest.mark.parametrize("G", [1, 3, 7])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.9])
def test_kernel_contract_matches_numpy_reference(backend, G, density):
    # Every backend writes exactly the slice [t0, t1) and nothing else.
    import numpy as np

    from spintable import kernels

    kern = kernels.get_backend(backend)
    rng = np.random.default_rng(G * 10 + int(density * 10))
    size = 211
    src, comp, ainv = _kernel_inputs(rng, size, G, density)
    live = _reference_round(src, comp)
    live_ind = _reference_round(src, comp[:, ainv])
    for t0, t1 in [(0, size), (0, 0), (70, 70), (7, size - 5), (size - 1, size)]:
        sl = slice(t0, t1)
        dst = np.full(size, 2, dtype=np.uint8)
        kern.step(src, dst, comp, t0, t1)
        assert (dst[sl] == live[sl]).all()
        assert (np.delete(dst, np.arange(t0, t1)) == 2).all()

        dst = np.full(size, 2, dtype=np.uint8)
        kern.step_indirect(src, dst, comp, ainv, t0, t1)
        assert (dst[sl] == live_ind[sl]).all()
        assert (np.delete(dst, np.arange(t0, t1)) == 2).all()


def test_compiled_kernel_rejects_bad_arguments():
    # Item type, dimensionality, contiguity, agreeing shapes and slice bounds
    # are all checked before anything is read or written.
    import numpy as np

    from spintable import kernels

    if "compiled" not in kernels.available_backends():
        pytest.skip("compiled kernel not built")
    kern = kernels.get_backend("compiled")
    rng = np.random.default_rng(3)
    size = 64
    src, comp, ainv = _kernel_inputs(rng, size, 3, 0.5)
    dst = np.zeros(size, dtype=np.uint8)
    readonly = dst.copy()
    readonly.setflags(write=False)
    bad_calls = {
        TypeError: [
            lambda: kern.step(src.astype(np.int8), dst, comp, 0, size),
            lambda: kern.step(src.astype(bool), dst, comp, 0, size),
            lambda: kern.step(src, dst, comp.astype(np.int64), 0, size),
            lambda: kern.step(src, dst, comp.astype(np.uint32), 0, size),
            lambda: kern.step_indirect(src, dst, comp, ainv.astype(np.int16), 0, size),
            lambda: kern.step(src, dst, comp, 0.0, size),
            lambda: kern.step(src, dst, [[0] * size], 0, size),
        ],
        ValueError: [
            lambda: kern.step(src, dst, comp[0], 0, size),
            lambda: kern.step(src, dst, comp[:, :, None], 0, size),
            lambda: kern.step(src, dst, np.asfortranarray(comp), 0, size),
            lambda: kern.step(src[::2], dst[::2], comp[:, ::2], 0, size // 2),
            lambda: kern.step(src, dst[:-1], comp, 0, size - 1),
            lambda: kern.step(src[:-1], dst, comp, 0, size),
            lambda: kern.step(src, dst, comp[:, :-1], 0, size - 1),
            lambda: kern.step_indirect(src, dst, comp, ainv[:-1], 0, size - 1),
            lambda: kern.step(src, dst, comp, 0, size + 1),
            lambda: kern.step(src, dst, comp, -1, size),
            lambda: kern.step(src, dst, comp, 5, 4),
            lambda: kern.step_indirect(src, dst, comp, ainv, 0, size + 1),
            lambda: kern.step(src, readonly, comp, 0, size),
        ],
    }
    for exc, calls in bad_calls.items():
        for call in calls:
            with pytest.raises(exc):
                call()
    assert not readonly.any()


@pytest.mark.parametrize("n,m", [(5, 2), (4, 3), (3, 5), (3, 6), (2, 27)])
def test_transition_tables_match_decoded_reference(n, m):
    # Move tables: ainv[t] = encode(decode(t) - y).  Permutation tables:
    # pinv[g, t] = encode(g^-1 applied to decode(t)).
    from spintable.perm import inverse
    from spintable.verify import TransitionTables

    spec = rot_spec(n, m)
    tables = TransitionTables(spec)
    configs = [decode_config(t, n, m) for t in range(spec.state_count)]
    rng = random.Random(n * 100 + m)
    moves = [[0] * n, [m - 1] * n] + [[rng.randrange(m) for _ in range(n)] for _ in range(3)]
    for entries in moves:
        y = mod_vector(m, entries)
        table = tables.move_table(y)
        assert table.dtype.name == "int32"
        assert table.tolist() == [encode_config(x - y) for x in configs]
    for gi, g in enumerate(spec.S.perms):
        g_inv = inverse(g)
        assert tables._pinv[gi].tolist() == [encode_config(act(g_inv, x)) for x in configs]
