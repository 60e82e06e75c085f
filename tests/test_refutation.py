import hashlib
import json
import random

import pytest

from conftest import rot_spec
from spintable import (
    GameSpec,
    SolvableSpec,
    Strategy,
    UnsolvabilityCertificate,
    act,
    adversary_move,
    build_certificate,
    generator_set,
    initial_bad_config,
    is_semi_homogeneous,
    mod_vector,
    perm,
    project_strategy,
    rotation,
    subsample_strategy,
    synth,
    verify_strategy,
)
from spintable import io as sio

S3_SPEC = GameSpec(3, 2, generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]]))

UNSOLVABLE = [
    rot_spec(2, 3),
    rot_spec(3, 2),
    rot_spec(6, 2),
    rot_spec(2, 6),
    rot_spec(12, 2),
    rot_spec(4, 6),
    S3_SPEC,
]


def replayed_move(x, y, cert, spec):
    """One oracle round, checked against the ModVector reference
    act(S.perms[i], x) + y; returns the next configuration."""
    index, x_next = adversary_move(x, y, cert, spec)
    reference = act(spec.S.perms[index], mod_vector(spec.m, x)) + mod_vector(spec.m, y)
    assert x_next == reference.entries
    return x_next


def test_certificate_rot_2_3():
    cert = build_certificate(rot_spec(2, 3))
    assert (cert.p, cert.q) == (2, 3)
    assert cert.c == perm([1, 0])
    assert cert.blocks == ((0, 1),)


def test_certificate_rot_6_2():
    cert = build_certificate(rot_spec(6, 2))
    assert (cert.p, cert.q) == (3, 2)
    assert cert.c == rotation(6, 2)
    assert sorted(cert.blocks) == [(0, 2, 4), (1, 3, 5)]


def test_certificate_prime_selection():
    assert (build_certificate(rot_spec(12, 2)).p, build_certificate(rot_spec(12, 2)).q) == (3, 2)
    assert (build_certificate(rot_spec(4, 6)).p, build_certificate(rot_spec(4, 6)).q) == (2, 3)
    assert (build_certificate(S3_SPEC).p, build_certificate(S3_SPEC).q) == (3, 2)


def test_certificate_rejects_solvable():
    with pytest.raises(SolvableSpec):
        build_certificate(rot_spec(4, 2))


def test_certificate_for_group_fixing_position_zero():
    # Every order-2 element here fixes position 0; blocks anchor at the
    # smallest moved position so the invariant still has teeth.
    spec = GameSpec(3, 3, generator_set(3, [[0, 1, 2], [0, 2, 1]]))
    cert = build_certificate(spec)
    assert cert.blocks == ((1, 2),)
    bad = initial_bad_config(cert, spec.m)
    assert bad == (0, 1, 0)
    assert not is_semi_homogeneous(bad, cert)


def test_semi_homogeneous_examples():
    cert = UnsolvabilityCertificate(
        p=2, q=3, c=perm([2, 3, 0, 1]), blocks=((0, 2), (1, 3))
    )
    assert is_semi_homogeneous((0, 0, 0, 0), cert)
    assert is_semi_homogeneous((0, 1, 3, 4), cert)
    assert not is_semi_homogeneous((0, 1, 1, 1), cert)


def test_initial_bad_config_examples():
    cert23 = build_certificate(rot_spec(2, 3))
    assert initial_bad_config(cert23, 3) == (1, 0)
    cert46 = build_certificate(rot_spec(4, 6))
    assert initial_bad_config(cert46, 6) == (1, 0, 0, 0)
    for spec in UNSOLVABLE:
        cert = build_certificate(spec)
        assert not is_semi_homogeneous(initial_bad_config(cert, spec.m), cert)


def test_adversary_move_examples():
    spec = rot_spec(2, 3)
    cert = build_certificate(spec)
    x = (0, 1)
    assert adversary_move(x, (2, 2), cert, spec) == (0, (2, 0))
    assert spec.S.perms[0].is_identity()
    assert adversary_move(x, (0, 2), cert, spec) == (1, (1, 2))
    assert spec.S.perms[1] == perm([1, 0])


def test_adversary_move_requires_bad_configuration():
    spec = rot_spec(2, 3)
    cert = build_certificate(spec)
    with pytest.raises(ValueError):
        adversary_move((1, 1), (0, 0), cert, spec)
    with pytest.raises(ValueError):
        adversary_move((0, 1), (0, 0, 0), cert, spec)


@pytest.mark.parametrize("spec", UNSOLVABLE, ids=lambda s: f"n{s.n}m{s.m}g{len(s.S)}")
def test_adversary_preserves_invariant_forever(spec):
    cert = build_certificate(spec)
    for seed in range(5):
        rng = random.Random(1000 * spec.n + spec.m + seed)
        x = initial_bad_config(cert, spec.m)
        for _ in range(300):
            y = tuple(rng.randrange(spec.m) for _ in range(spec.n))
            x = replayed_move(x, y, cert, spec)
            assert not is_semi_homogeneous(x, cert)
            assert any(x)


def test_adversary_defeats_strategies_synthesized_for_wrong_spec():
    # A strategy built for a winnable game must still lose here.
    cert = build_certificate(rot_spec(2, 6))
    spec = rot_spec(2, 6)
    donor = synth(rot_spec(2, 2))
    x = initial_bad_config(cert, spec.m)
    for y2 in donor.moves * 3:
        x = replayed_move(x, y2.entries, cert, spec)
        assert not is_semi_homogeneous(x, cert)


@pytest.mark.parametrize(
    "spec", [rot_spec(2, 3), rot_spec(3, 2), rot_spec(2, 6), S3_SPEC],
    ids=lambda s: f"n{s.n}m{s.m}g{len(s.S)}",
)
def test_verifier_rejects_random_strategies_on_unsolvable_specs(spec):
    rng = random.Random(42)
    for _ in range(10):
        moves = tuple(
            mod_vector(spec.m, [rng.randrange(spec.m) for _ in range(spec.n)])
            for _ in range(2 * spec.state_count)
        )
        verdict = verify_strategy(Strategy(spec, moves))
        assert not verdict.wins


def test_subsample_identity_when_k_is_one():
    strategy = synth(rot_spec(4, 2))
    out = subsample_strategy(strategy, 1)
    assert out.moves == strategy.moves


def test_subsample_golden_strategy_wins_reduced_game():
    strategy = synth(rot_spec(4, 2))
    reduced = subsample_strategy(strategy, 2)
    assert reduced.spec.n == 2 and reduced.spec.m == 2
    assert len(reduced) == 15
    assert verify_strategy(reduced).wins


def test_subsample_constant_moves_stay_constant():
    spec = rot_spec(6, 3)
    strategy = Strategy(spec, (mod_vector(3, [2] * 6),))
    out = subsample_strategy(strategy, 3)
    assert out.moves[0].entries == (2, 2)


def test_subsample_requires_divisor_and_rotations():
    strategy = synth(rot_spec(4, 2))
    with pytest.raises(ValueError):
        subsample_strategy(strategy, 3)
    swap_spec = GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]]))
    with pytest.raises(ValueError):
        subsample_strategy(synth(swap_spec), 2)


def test_project_identity_when_b_is_m():
    strategy = synth(rot_spec(2, 4))
    out = project_strategy(strategy, 4)
    assert out.moves == strategy.moves


def test_project_lifted_strategy_wins_reduced_game():
    strategy = synth(rot_spec(2, 4))
    reduced = project_strategy(strategy, 2)
    assert reduced.spec.m == 2
    assert verify_strategy(reduced).wins


def test_project_residues():
    spec = rot_spec(2, 4)
    out = project_strategy(Strategy(spec, (mod_vector(4, [3, 2]),)), 2)
    assert out.moves[0].entries == (1, 0)


def test_project_requires_divisor():
    with pytest.raises(ValueError):
        project_strategy(synth(rot_spec(2, 4)), 3)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (5, 2), (7, 3)])
def test_prime_pair_blocks_cover_all_positions(n, m):
    # For (p, q) rotation games the certificate blocks collapse to the whole
    # position set: constant-on-blocks means fully homogeneous.
    cert = build_certificate(rot_spec(n, m))
    assert cert.blocks == (tuple(range(n)),)


# sha256 of dump_certificate(build_certificate(rot_spec(n, m))), computed
# before the group left its element list for a stabilizer chain.
PINNED_CERTIFICATES = {
    (2, 3): "09fbc7022f2e794f24197b099881279775f75188c359f46443f7e31ebe5249d3",
    (4, 6): "97edab4c6b70741d1d97c6a6e49059dc4029f716b56de3b1449d9c165d1af2dd",
    (6, 2): "b8dd6d9e01e0e38dccb66a9664ffed171bba57859c5412b438d4178d6a076f51",
    (12, 2): "4ed02f229be594754969d295d2d34060aec0cd34fd5f4084b7dd5150973362eb",
    (15, 4): "0164a02e75c429ba8fb2c205802a5f6dbfe9b7a15a823ec0d61c13aa6a95c78e",
}


@pytest.mark.parametrize("n,m", sorted(PINNED_CERTIFICATES), ids=lambda v: str(v))
def test_rotation_certificates_are_pinned(n, m):
    text = sio.dump_certificate(build_certificate(rot_spec(n, m)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CERTIFICATES[(n, m)]


# S_8 as a transposition and an 8-cycle relabeled by sigma = [3, 7, 0, 5, 1,
# 6, 2, 4], identity first, as `--gens` would load it.
S8_SPEC = GameSpec(
    8,
    2,
    generator_set(
        8, [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 7, 4, 5, 6, 3], [5, 6, 4, 7, 3, 1, 2, 0]]
    ),
)


@pytest.mark.parametrize(
    "spec,p,q,c,first,blocks_sha256",
    [
        (
            S8_SPEC, 3, 2, [0, 1, 5, 2, 4, 3, 6, 7], (2, 3, 5),
            "f6194dbde7d32e60c8efa625cd95b282c365dcc89368d978fc5187eaf63aa1eb",
        ),
        (
            S3_SPEC, 3, 2, [1, 2, 0], (0, 1, 2),
            "f3e49bcac468b5dff9d7d3154cf1a5bb18d41916d251ddfa652c84823c5c1382",
        ),
    ],
    ids=["sym-8", "sym-3"],
)
def test_certificate_of_symmetric_groups_is_pinned(spec, p, q, c, first, blocks_sha256):
    # p, q, c and the first block are as when the blocks were listed in
    # first-occurrence order over the enumerated group; the block set is too
    # (sha256 of the JSON of the sorted blocks), only its order may differ.
    cert = build_certificate(spec)
    assert (cert.p, cert.q, list(cert.c.mapping), cert.blocks[0]) == (p, q, c, first)
    assert len(set(cert.blocks)) == len(cert.blocks)
    digest = hashlib.sha256(json.dumps(sorted(cert.blocks)).encode()).hexdigest()
    assert digest == blocks_sha256


def test_oracle_run_is_pinned():
    # 20 000 rounds on rot-12-2 with the CLI's move source: sha256 of the
    # chosen generator indices (one byte each) and the final configuration,
    # both as the ModVector oracle produced them.
    spec = rot_spec(12, 2)
    cert = build_certificate(spec)
    rng = random.Random(20260)
    x = initial_bad_config(cert, spec.m)
    indices = bytearray()
    for _ in range(20_000):
        y = tuple([rng.randrange(spec.m) for _ in range(spec.n)])
        index, x = adversary_move(x, y, cert, spec)
        indices.append(index)
    assert hashlib.sha256(indices).hexdigest() == (
        "58ce2d79a08af3a0fd84ef176cd197e4a100d40fedea2863cc84b92c50f83b9e"
    )
    assert x == (0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0)
