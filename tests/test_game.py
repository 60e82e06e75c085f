import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import rot_spec
from oracles import belief_step, configs
from spintable import (
    GameSpec,
    act,
    binomial_basis,
    closure,
    decode_config,
    encode_config,
    generator_set,
    mod_vector,
    perm,
    rotation_generators,
    simulate_trace,
)
from spintable.perm import identity, inverse


def test_act_identity():
    x = mod_vector(5, [1, 2, 3])
    assert act(identity(3), x) == x


def test_act_rotation():
    x = mod_vector(7, [1, 2, 3, 4])
    assert act(perm([1, 2, 3, 0]), x).entries == (4, 1, 2, 3)


def test_act_size_mismatch():
    with pytest.raises(ValueError):
        act(perm([0, 1]), mod_vector(2, [1, 1, 0]))


@given(
    hs.integers(min_value=2, max_value=6).flatmap(
        lambda n: hs.tuples(
            hs.permutations(list(range(n))),
            hs.lists(hs.integers(0, 4), min_size=n, max_size=n),
            hs.lists(hs.integers(0, 4), min_size=n, max_size=n),
        )
    )
)
@settings(deadline=None)
def test_act_is_linear(data):
    g_map, xs, ys = data
    g = perm(g_map)
    m = 5
    x, y = mod_vector(m, xs), mod_vector(m, ys)
    assert act(g, x + y) == act(g, x) + act(g, y)
    assert act(g, x).is_zero() == x.is_zero()


def test_encode_decode_roundtrip():
    for m, n in [(2, 4), (3, 3), (6, 2)]:
        for code in range(m**n):
            assert encode_config(decode_config(code, n, m)) == code


# The sparse belief step is the tests' own reference (tests/oracles.py);
# these pin its semantics by hand before other tests compare against it.


def test_belief_step_hand_enumerated():
    swap = [[0, 1], [1, 0]]
    assert belief_step({(0, 1)}, (1, 0), swap, 2) == {(1, 1)}


def test_belief_step_empty():
    gens = [g.mapping for g in rotation_generators(3).perms]
    assert belief_step(set(), (1, 0, 1), gens, 2) == set()


def test_belief_step_identity_noop():
    belief = {(1, 0), (2, 1), (1, 2)}
    assert belief_step(belief, (0, 0), [[0, 1]], 3) == belief


def test_belief_state_never_contains_zero():
    gens = [g.mapping for g in rotation_generators(2).perms]
    out = belief_step({(0, 0), (1, 0), (0, 1)}, (1, 1), gens, 2)
    assert (0, 0) not in out


def test_belief_growth_bounds():
    rng = np.random.default_rng(3)
    gens = [g.mapping for g in rotation_generators(3).perms]
    belief = set(configs(3, 3)[1:])
    for _ in range(10):
        y = tuple(rng.integers(0, 3, size=3).tolist())
        nxt = belief_step(belief, y, gens, 3)
        assert len(nxt) <= len(belief) * len(gens)
        assert len(nxt) <= len(belief)  # the rotations are a whole group
        belief = nxt


def test_belief_shrinks_only_by_zero_removal_for_identity_only():
    belief = set(configs(2, 4)[1:])
    nxt = belief_step(belief, (1, 2), [[0, 1]], 4)
    assert len(belief) - 1 <= len(nxt) <= len(belief)


def test_simulate_trace_start_zero():
    spec = rot_spec(3, 2)
    tr = simulate_trace(spec, mod_vector(2, [0, 0, 0]), [mod_vector(2, [1, 1, 1])], [0])
    assert tr.won
    assert len(tr.configs) == 2


def test_simulate_trace_win_after_move():
    spec = rot_spec(2, 2)
    tr = simulate_trace(spec, mod_vector(2, [1, 1]), [mod_vector(2, [1, 1])], [0])
    assert tr.won
    assert tr.configs[-1].entries == (0, 0)


def test_simulate_trace_bad_index():
    spec = rot_spec(2, 2)
    with pytest.raises(IndexError):
        simulate_trace(spec, mod_vector(2, [1, 0]), [mod_vector(2, [1, 1])], [5])


def test_simulate_trace_length_mismatch():
    spec = rot_spec(2, 2)
    with pytest.raises(ValueError):
        simulate_trace(spec, mod_vector(2, [1, 0]), [mod_vector(2, [1, 1])], [])


def test_gamespec_requires_identity():
    with pytest.raises(ValueError):
        GameSpec(2, 2, generator_set(2, [[1, 0]]))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (2, 8), (3, 3), (3, 9)])
def test_leading_index_invariant_under_rotations(p, n):
    # Expand every vector of Z_p^n in the binomial basis; rotating the table
    # never changes which basis vector leads, nor its coefficient.
    basis = binomial_basis(p, n)
    mat = basis.matrix()
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1) % p
    # Gauss-Jordan inverse mod p (test-local, small n).
    a = aug.copy()
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r, c] % p)
        a[[c, piv]] = a[[piv, c]]
        a[c] = (a[c] * pow(int(a[c, c]), -1, p)) % p
        for r in range(n):
            if r != c and a[r, c]:
                a[r] = (a[r] - a[r, c] * a[c]) % p
    inv = a[:, n:]
    codes = np.arange(p**n, dtype=np.int64)
    digits = np.empty((p**n, n), dtype=np.int64)
    for i in range(n):
        digits[:, i] = (codes // p**i) % p
    coeffs = (inv @ digits.T) % p
    nonzero = coeffs != 0
    has_any = nonzero.any(axis=0)
    lead = n - 1 - np.argmax(nonzero[::-1, :], axis=0)
    lead_coeff = coeffs[lead, np.arange(p**n)]
    for g in rotation_generators(n).perms:
        ginv = inverse(g).mapping
        rotated = digits[:, list(ginv)]
        rcoeffs = (inv @ rotated.T) % p
        rnonzero = rcoeffs != 0
        rlead = n - 1 - np.argmax(rnonzero[::-1, :], axis=0)
        sel = has_any
        assert np.array_equal(rlead[sel], lead[sel])
        assert np.array_equal(rcoeffs[rlead[sel], np.flatnonzero(sel)], lead_coeff[sel])


def test_closure_memoization_shares_work():
    S = rotation_generators(6)
    assert closure(S) is closure(S)
