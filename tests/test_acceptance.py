"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line for its criterion.  Stated runtime
budgets are asserted, not just observed.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from conftest import rot_spec
from oracles import game_tree_wins, orbit_partition
from spintable import (
    GameSpec,
    Strategy,
    act,
    adversary_move,
    bench_verify,
    binomial_basis,
    build_certificate,
    generator_set,
    initial_bad_config,
    is_semi_homogeneous,
    mod_vector,
    optimal_length,
    project_strategy,
    simulate_trace,
    solve_in_span,
    subsample_strategy,
    synth,
    verify_strategy,
)
from spintable import io as sio
from spintable.perm import rotation_generators
from spintable.verify import ORDER_MOVE_PERMUTE

GOLDEN_15 = [
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 0, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 1),
    (1, 1, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1),
]

SWAP01_N4 = generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]])
KLEIN = generator_set(4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
DIHEDRAL_4 = generator_set(4, [[0, 1, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0]])
CYCLIC_4 = generator_set(4, [[0, 1, 2, 3], [1, 2, 3, 0]])

SWEEP_CASES = [
    ("rot-2-2", rot_spec(2, 2), 10.0),
    ("rot-4-2", rot_spec(4, 2), 10.0),
    ("rot-8-2", rot_spec(8, 2), 10.0),
    ("rot-2-4", rot_spec(2, 4), 10.0),
    ("rot-4-4", rot_spec(4, 4), 10.0),
    ("rot-2-8", rot_spec(2, 8), 10.0),
    ("rot-3-3", rot_spec(3, 3), 10.0),
    ("rot-3-9", rot_spec(3, 9), 10.0),
    ("rot-5-5", rot_spec(5, 5), 10.0),
    ("swap01-4-2", GameSpec(4, 2, SWAP01_N4), 10.0),
    ("klein-4-2", GameSpec(4, 2, KLEIN), 10.0),
    ("dihedral-4-2", GameSpec(4, 2, DIHEDRAL_4), 10.0),
    ("cyclic-4-2", GameSpec(4, 2, CYCLIC_4), 10.0),
    ("trivial-1-5", GameSpec(1, 5, generator_set(1, [[0]])), 10.0),
    ("trivial-2-3", GameSpec(2, 3, generator_set(2, [[0, 1]])), 10.0),
    ("trivial-3-2", GameSpec(3, 2, generator_set(3, [[0, 1, 2]])), 10.0),
]

UNSOLVABLE_CASES = [
    ("rot-2-3", rot_spec(2, 3)),
    ("rot-3-2", rot_spec(3, 2)),
    ("rot-6-2", rot_spec(6, 2)),
    ("rot-2-6", rot_spec(2, 6)),
    ("rot-12-2", rot_spec(12, 2)),
    ("rot-4-6", rot_spec(4, 6)),
    ("sym3-3-2", GameSpec(3, 2, generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]]))),
]


def test_criterion_1_golden_sequence():
    start = time.perf_counter()
    strategy = synth(rot_spec(4, 2))
    elapsed = time.perf_counter() - start
    assert [y.entries for y in strategy.moves] == GOLDEN_15
    expected_moves_json = "[" + ",".join(
        "[" + ",".join(str(v) for v in mv) + "]" for mv in GOLDEN_15
    ) + "]"
    assert f'"moves":{expected_moves_json}' in sio.dump_strategy(strategy)
    assert elapsed < 1.0
    print("\n[PASS] criterion 1: golden 15-move sequence, byte-exact")


@pytest.mark.parametrize("name,spec,budget", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_criterion_2_soundness_sweep(name, spec, budget):
    start = time.perf_counter()
    strategy = synth(spec)
    assert len(strategy) == optimal_length(spec.n, spec.m)
    verdict = verify_strategy(strategy)
    elapsed = time.perf_counter() - start
    assert verdict.wins
    assert elapsed < budget
    print(f"\n[PASS] criterion 2: {name} wins at length {len(strategy)} in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_soundness_sweep_rot_9_3():
    start = time.perf_counter()
    strategy = synth(rot_spec(9, 3))
    assert len(strategy) == optimal_length(9, 3)
    verdict = verify_strategy(strategy)
    elapsed = time.perf_counter() - start
    assert verdict.wins
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 2: rot-9-3 wins at length {len(strategy)} in {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_2_soundness_sweep_rot_7_7(tmp_path):
    # 7^7 = 823543 states and 823542 moves: the exact check is ~4.7e12
    # configuration transitions.  The stated 10 s budget is enforced in a
    # subprocess; exceeding it is a failure, not a hang.
    spec = rot_spec(7, 7)
    strategy = synth(spec)
    assert len(strategy) == optimal_length(7, 7)
    path = tmp_path / "rot77.json"
    path.write_text(sio.dump_strategy(strategy))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spintable", "verify", str(path)],
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except subprocess.TimeoutExpired:
        print("\n[FAIL] criterion 2: rot-7-7 verification exceeded the 10 s budget")
        pytest.fail(
            "rot-7-7: exact verification needs ~5e12 transitions (hours at "
            "memory bandwidth); it cannot finish within the 10 s budget"
        )
    verdict = json.loads(proc.stdout)
    assert verdict["wins"]
    print("\n[PASS] criterion 2: rot-7-7 verified within budget")


@pytest.mark.parametrize(
    "name,spec,budget",
    [c for c in SWEEP_CASES if c[1].state_count <= 4096],
    ids=[c[0] for c in SWEEP_CASES if c[1].state_count <= 4096],
)
def test_criterion_3_tightness(name, spec, budget):
    strategy = synth(spec)
    clipped = Strategy(spec, strategy.moves[:-1])
    verdict = verify_strategy(clipped, want_witness=True)
    assert not verdict.wins
    assert verdict.witness is not None
    replay = simulate_trace(spec, verdict.witness.start, clipped.moves, verdict.witness.perms)
    assert not replay.won
    assert all(not c.is_zero() for c in replay.configs)
    print(f"\n[PASS] criterion 3: {name} loses after dropping the final move")


ORACLE_FAMILY = [
    ("rot-2-2", rot_spec(2, 2)),
    ("rot-4-2", rot_spec(4, 2)),
    ("rot-2-4", rot_spec(2, 4)),
    ("rot-8-2", rot_spec(8, 2)),
    ("rot-2-8", rot_spec(2, 8)),
    ("rot-3-3", rot_spec(3, 3)),
    ("rot-2-3", rot_spec(2, 3)),
    ("rot-3-2", rot_spec(3, 2)),
    ("rot-6-2", rot_spec(6, 2)),
    ("rot-2-6", rot_spec(2, 6)),
    ("swap01-4-2", GameSpec(4, 2, SWAP01_N4)),
    ("klein-4-2", GameSpec(4, 2, KLEIN)),
    ("dihedral-4-2", GameSpec(4, 2, DIHEDRAL_4)),
    ("cyclic-4-2", GameSpec(4, 2, CYCLIC_4)),
    ("trivial-2-3", GameSpec(2, 3, generator_set(2, [[0, 1]]))),
    ("sym3-3-2", GameSpec(3, 2, generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]]))),
]


@pytest.mark.parametrize("name,spec", ORACLE_FAMILY, ids=[c[0] for c in ORACLE_FAMILY])
def test_criterion_4_oracle_equivalence(name, spec):
    assert spec.state_count <= 256
    rng = random.Random(48_000 + 97 * spec.n + spec.m + len(spec.S))
    gens = [g.mapping for g in spec.S.perms]
    disagreements = 0
    for _ in range(200):
        length = rng.randrange(0, 13)
        moves = tuple(
            mod_vector(spec.m, [rng.randrange(spec.m) for _ in range(spec.n)])
            for _ in range(length)
        )
        strategy = Strategy(spec, moves)
        oracle = game_tree_wins(spec.n, spec.m, gens, [y.entries for y in moves])
        canonical = verify_strategy(strategy).wins
        swapped = verify_strategy(strategy, order=ORDER_MOVE_PERMUTE).wins
        if not (oracle == canonical == swapped):
            disagreements += 1
    assert disagreements == 0
    print(f"\n[PASS] criterion 4: {name} agrees with the game-tree oracle on 200 strategies")


@pytest.mark.parametrize("name,spec", UNSOLVABLE_CASES, ids=[c[0] for c in UNSOLVABLE_CASES])
def test_criterion_5_impossibility_fuzz(name, spec):
    cert = build_certificate(spec)
    for seq in range(100):
        rng = random.Random(90_000 + 1009 * seq + spec.n * 31 + spec.m)
        x = initial_bad_config(cert, spec.m)
        assert not is_semi_homogeneous(x, cert)
        reference = mod_vector(spec.m, x)
        for _ in range(1000):
            y = mod_vector(spec.m, [rng.randrange(spec.m) for _ in range(spec.n)])
            index, x = adversary_move(x, y.entries, cert, spec)
            reference = act(spec.S.perms[index], reference) + y
            assert x == reference.entries
            assert not is_semi_homogeneous(x, cert)
            assert not reference.is_zero()
    print(f"\n[PASS] criterion 5: {name} invariant held for 100 x 1000 adversary rounds")


@pytest.mark.parametrize(
    "name,spec",
    [c for c in UNSOLVABLE_CASES if c[1].state_count <= 4096],
    ids=[c[0] for c in UNSOLVABLE_CASES if c[1].state_count <= 4096],
)
def test_criterion_5_verifier_rejections(name, spec):
    rng = random.Random(71_000 + 13 * spec.n + spec.m)
    for _ in range(50):
        moves = tuple(
            mod_vector(spec.m, [rng.randrange(spec.m) for _ in range(spec.n)])
            for _ in range(2 * spec.state_count)
        )
        assert not verify_strategy(Strategy(spec, moves)).wins
    print(f"\n[PASS] criterion 5: {name} rejected 50 random strategies")


def test_criterion_6_shift_span_suite():
    start = time.perf_counter()
    for p, n in [(2, 2), (2, 4), (2, 8), (3, 3), (3, 9), (5, 5)]:
        basis = binomial_basis(p, n)
        for j, x in enumerate(basis.vectors):
            for k in range(n):
                shifted = mod_vector(p, tuple(x.entries[(k + i) % n] for i in range(n)))
                delta = x - shifted
                assert solve_in_span(list(basis.vectors[:j]), delta) is not None
        for g in rotation_generators(n).perms:
            for j, x in enumerate(basis.vectors):
                delta = act(g, x) - x
                assert solve_in_span(list(basis.vectors[:j]), delta) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 6: shift-span suite finished in {elapsed:.2f}s")


def test_criterion_7_reduction_forward_checks():
    golden = synth(rot_spec(4, 2))
    sub = subsample_strategy(golden, 2)
    assert sub.spec.n == 2 and sub.spec.m == 2
    assert verify_strategy(sub).wins
    lifted = synth(rot_spec(2, 4))
    projected = project_strategy(lifted, 2)
    assert projected.spec.m == 2
    assert verify_strategy(projected).wins
    print("\n[PASS] criterion 7: subsample and projection of winners still win")


def test_criterion_8_orbit_counting():
    start = time.perf_counter()
    cases = [
        (2, 4, [g.mapping for g in KLEIN.perms]),
        (3, 3, [g.mapping for g in rotation_generators(3).perms]),
    ]
    for p, n, gens in cases:
        vectors = []
        for code in range(p**n):
            v = []
            c = code
            for _ in range(n):
                v.append(c % p)
                c //= p
            vectors.append(tuple(v))
        orbits = orbit_partition(gens, vectors)
        assert sum(len(o) for o in orbits) == p**n
        fixed = 0
        for orbit in orbits:
            size = len(orbit)
            while size % p == 0:
                size //= p
            assert size == 1
            if len(orbit) == 1:
                fixed += 1
        assert fixed % p == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 8: orbit sizes are prime powers, fixed counts divisible by p")


def test_criterion_9_performance_floor():
    spec = rot_spec(8, 2)
    strategy = synth(spec)
    verify_strategy(strategy)  # warm: tables, kernel import
    start = time.perf_counter()
    verdict = verify_strategy(strategy)
    elapsed = time.perf_counter() - start
    assert verdict.wins
    assert elapsed < 0.050, f"verification took {elapsed * 1000:.1f} ms"
    floors = {}
    for backend in sorted(__import__("spintable").available_backends()):
        result = bench_verify(strategy, backend=backend)
        floors[backend] = result.transitions_per_second
        assert result.transitions_per_second >= 1e7, (
            f"{backend}: {result.transitions_per_second:.3g} transitions/s"
        )
    summary = ", ".join(f"{k}: {v:.3g} tps" for k, v in floors.items())
    print(f"\n[PASS] criterion 9: verify in {elapsed * 1000:.2f} ms; {summary}")
