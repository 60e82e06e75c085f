import pytest

from conftest import rot_spec
from oracles import gray_moves, lifted_moves, vp
from spintable import (
    CapExceeded,
    GameSpec,
    Strategy,
    UnsolvableSpec,
    decide,
    encode_config,
    enumeration_strategy,
    generator_set,
    lift_strategy,
    mod_vector,
    optimal_length,
    simulate_trace,
    synth,
    synth_mod_p,
    verify_strategy,
)
from spintable.solve import ruler_valuations

GOLDEN_15 = [
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 0, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1),
]

LIFTED_2_4 = [
    (2, 2), (0, 2), (2, 2), (1, 1), (2, 2), (0, 2), (2, 2), (0, 1),
    (2, 2), (0, 2), (2, 2), (1, 1), (2, 2), (0, 2), (2, 2),
]


def test_decide_rotations_4_2():
    v = decide(rot_spec(4, 2))
    assert v.solvable and v.reason == "prime-power-match"
    assert (v.p, v.a, v.b) == (2, 2, 1)


def test_decide_mixed_primes():
    v = decide(rot_spec(2, 3))
    assert not v.solvable and v.reason == "mixed-primes"


def test_decide_unit_modulus():
    v = decide(rot_spec(5, 1))
    assert v.solvable and v.reason == "unit-modulus"


def test_decide_trivial_group():
    v = decide(GameSpec(3, 2, generator_set(3, [[0, 1, 2]])))
    assert v.solvable and v.reason == "trivial-group"


def test_decide_symmetric_group_unsolvable():
    spec = GameSpec(3, 2, generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]]))
    v = decide(spec)
    assert not v.solvable
    assert v.group_order == 6


def test_golden_sequence_exact():
    strategy = synth_mod_p(rot_spec(4, 2))
    assert [y.entries for y in strategy.moves] == GOLDEN_15
    assert strategy.metadata["construction"] == "binomial"


def test_mod_p_two_positions():
    strategy = synth_mod_p(rot_spec(2, 2))
    assert [y.entries for y in strategy.moves] == [(1, 1), (0, 1), (1, 1)]


def test_mod_p_fixed_chain_for_swap_group():
    spec = GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]]))
    strategy = synth_mod_p(spec)
    assert len(strategy) == 15
    assert strategy.metadata["construction"] == "fixed-chain"
    assert verify_strategy(strategy).wins


def test_mod_p_rejects_unsolvable():
    with pytest.raises(UnsolvableSpec):
        synth_mod_p(rot_spec(2, 3))


def test_mod_p_rejects_trivial_group():
    with pytest.raises(ValueError):
        synth_mod_p(GameSpec(2, 2, generator_set(2, [[0, 1]])))


def test_lift_from_unit_modulus_is_identity():
    spec1 = rot_spec(2, 1)
    modp = synth_mod_p(rot_spec(2, 2))
    lifted = lift_strategy(Strategy(spec1, ()), modp)
    assert [y.entries for y in lifted.moves] == [y.entries for y in modp.moves]
    assert lifted.spec.m == 2


def test_lift_2_4_exact_sequence():
    modp = synth_mod_p(rot_spec(2, 2))
    lifted = lift_strategy(modp, modp)
    assert lifted.spec.m == 4
    assert [y.entries for y in lifted.moves] == LIFTED_2_4
    assert verify_strategy(lifted).wins


def test_lift_length_identity():
    modp = synth_mod_p(rot_spec(2, 2))
    lifted = lift_strategy(modp, modp)
    assert len(lifted) == 2 ** (2 * 2) - 1 == 4**2 - 1


def test_lift_modulus_mismatch():
    modp2 = synth_mod_p(rot_spec(2, 2))
    modp3 = synth_mod_p(rot_spec(3, 3))
    with pytest.raises(ValueError):
        lift_strategy(modp3, modp2)


def test_enumeration_single_counter():
    spec = GameSpec(1, 5, generator_set(1, [[0]]))
    strategy = enumeration_strategy(spec)
    assert [y.entries for y in strategy.moves] == [(1,), (1,), (1,), (1,)]


def test_enumeration_prefix_sums_in_gray_order():
    spec = GameSpec(2, 2, generator_set(2, [[0, 1]]))
    strategy = enumeration_strategy(spec)
    acc = mod_vector(2, [0, 0])
    seen = []
    for y in strategy.moves:
        acc = acc + y
        seen.append(acc.entries)
    assert seen == [(1, 0), (1, 1), (0, 1)]


def test_enumeration_unit_modulus():
    spec = GameSpec(3, 1, generator_set(3, [[0, 1, 2]]))
    assert len(enumeration_strategy(spec)) == 0


def test_enumeration_rejects_nontrivial_group():
    with pytest.raises(ValueError):
        enumeration_strategy(rot_spec(2, 2))


def test_enumeration_each_move_touches_one_counter():
    spec = GameSpec(3, 3, generator_set(3, [[0, 1, 2]]))
    strategy = enumeration_strategy(spec)
    for y in strategy.moves:
        touched = [e for e in y.entries if e != 0]
        assert len(touched) == 1
        assert touched[0] in (1, spec.m - 1)


@pytest.mark.parametrize(
    "n,m", [(1, 5), (2, 3), (3, 2), (2, 5), (1, 7)]
)
def test_enumeration_prefix_coverage(n, m):
    spec = GameSpec(n, m, generator_set(n, [list(range(n))]))
    strategy = enumeration_strategy(spec)
    acc = mod_vector(m, [0] * n)
    codes = []
    for y in strategy.moves:
        acc = acc + y
        codes.append(encode_config(acc))
    assert len(codes) == m**n - 1
    assert sorted(codes) == list(range(1, m**n))


def test_synth_dispatch_unit_modulus():
    strategy = synth(rot_spec(3, 1))
    assert len(strategy) == 0
    assert verify_strategy(strategy).wins


def test_synth_rejects_unsolvable():
    with pytest.raises(UnsolvableSpec):
        synth(rot_spec(2, 3))


@pytest.mark.parametrize(
    "spec,length",
    [
        (rot_spec(4, 2), 15),
        (rot_spec(2, 4), 15),
        (rot_spec(3, 3), 26),
        (rot_spec(2, 8), 63),
        (GameSpec(2, 3, generator_set(2, [[0, 1]])), 8),
    ],
    ids=["rot-4-2", "rot-2-4", "rot-3-3", "rot-2-8", "trivial-2-3"],
)
def test_synth_wins_at_optimal_length(spec, length):
    strategy = synth(spec)
    assert len(strategy) == length == optimal_length(spec.n, spec.m)
    assert verify_strategy(strategy).wins


def test_optimal_length_values():
    assert optimal_length(4, 2) == 15
    assert optimal_length(6, 1) == 0
    assert optimal_length(3, 3) == 26


def test_optimal_length_cap():
    with pytest.raises(CapExceeded):
        optimal_length(64, 10)


@pytest.mark.parametrize(
    "spec",
    [rot_spec(2, 2), rot_spec(4, 2), rot_spec(2, 4), rot_spec(3, 3),
     GameSpec(3, 2, generator_set(3, [[0, 1, 2]]))],
    ids=["rot-2-2", "rot-4-2", "rot-2-4", "rot-3-3", "trivial-3-2"],
)
def test_dropping_last_move_loses(spec):
    strategy = synth(spec)
    clipped = Strategy(spec, strategy.moves[:-1])
    verdict = verify_strategy(clipped, want_witness=True)
    assert not verdict.wins
    replay = simulate_trace(spec, verdict.witness.start, clipped.moves, verdict.witness.perms)
    assert not replay.won


def test_lift_block_boundaries_recover_mod_p_strategy():
    # Taking the lifted moves at indices divisible by the block size, mod p,
    # must reproduce the prime-modulus strategy itself.
    for n, m in [(2, 4), (2, 8), (3, 9)]:
        spec = rot_spec(n, m)
        verdict = decide(spec)
        p, b = verdict.p, verdict.b
        lifted = synth(spec)
        modp = synth_mod_p(rot_spec(n, p))
        block = p ** ((b - 1) * n)
        boundary = [
            tuple(e % p for e in lifted.moves[i - 1].entries)
            for i in range(block, len(lifted) + 1, block)
        ]
        assert boundary == [y.entries for y in modp.moves]


def test_off_boundary_lift_moves_vanish_mod_p():
    lifted = synth(rot_spec(2, 4))
    for i, y in enumerate(lifted.moves, start=1):
        if i % 4 != 0:
            assert all(e % 2 == 0 for e in y.entries)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ruler_valuations_match_vp(p):
    for count in (0, 1, p - 1, p, p**2 - 1, p**3, 1000):
        assert ruler_valuations(count, p).tolist() == [vp(i, p) for i in range(1, count + 1)]


def test_ruler_valuations_reject_base_below_two():
    assert ruler_valuations(0, 1).tolist() == []
    with pytest.raises(ValueError):
        ruler_valuations(3, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_recursive_gray_walk(n, m):
    spec = GameSpec(n, m, generator_set(n, [list(range(n))]))
    strategy = enumeration_strategy(spec)
    assert [y.entries for y in strategy.moves] == gray_moves(n, m)
    assert len({id(y) for y in strategy.moves}) <= 2 * n


def _lift_chain(spec):
    """Every lift_strategy call synth makes for spec, as (base, modp) pairs."""
    v = decide(spec)
    modp = synth_mod_p(rot_spec(spec.n, v.p))
    out = modp
    pairs = []
    for _ in range(v.b - 1):
        pairs.append((out, modp))
        out = lift_strategy(out, modp)
    return pairs


@pytest.mark.parametrize(
    "spec", [rot_spec(2, 8), rot_spec(8, 4), rot_spec(3, 27)], ids=lambda s: f"rot-{s.n}-{s.m}"
)
def test_lift_matches_per_move_reference(spec):
    pairs = _lift_chain(spec)
    assert pairs
    for base, modp in pairs:
        p = modp.spec.m
        lifted = lift_strategy(base, modp)
        expected = lifted_moves(
            [y.entries for y in base.moves], [y.entries for y in modp.moves], p, spec.n, lifted.spec.m
        )
        assert [y.entries for y in lifted.moves] == expected
    assert lifted.spec == spec
    assert [y.entries for y in lifted.moves] == [y.entries for y in synth(spec).moves]


def test_lift_from_unit_modulus_matches_per_move_reference():
    for n, p in [(2, 2), (3, 3), (4, 2)]:
        modp = synth_mod_p(rot_spec(n, p))
        lifted = lift_strategy(Strategy(rot_spec(n, 1), ()), modp)
        expected = lifted_moves([], [y.entries for y in modp.moves], p, n, p)
        assert [y.entries for y in lifted.moves] == expected


def test_lift_rejects_strategies_of_the_wrong_length():
    modp = synth_mod_p(rot_spec(2, 2))
    short = Strategy(modp.spec, modp.moves[:-1])
    with pytest.raises(ValueError):
        lift_strategy(short, modp)
    with pytest.raises(ValueError):
        lift_strategy(modp, short)
