import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spintable import (
    cauchy_element,
    closure,
    compose,
    cyclic_blocks,
    element_order,
    generator_set,
    identity,
    inverse,
    normalize_generators,
    perm,
    rotation,
    rotation_generators,
)

ROT1_4 = perm([1, 2, 3, 0])


def random_perm(draw_n):
    return hs.permutations(list(range(draw_n))).map(perm)


small_perms = hs.integers(min_value=1, max_value=6).flatmap(
    lambda n: hs.tuples(random_perm(n), random_perm(n), random_perm(n))
)


def test_compose_rotations():
    assert compose(ROT1_4, ROT1_4) == rotation(4, 2)


def test_compose_identity_law():
    g = perm([2, 0, 3, 1])
    assert compose(g, identity(4)) == g
    assert compose(identity(4), g) == g


def test_compose_pointwise():
    assert compose(perm([1, 0, 2]), perm([0, 2, 1])) == perm([1, 2, 0])


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(perm([0, 1]), perm([0, 1, 2]))


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        perm([0, 0, 1])


def test_inverse_examples():
    assert inverse(identity(3)) == identity(3)
    assert inverse(ROT1_4) == perm([3, 0, 1, 2])
    assert inverse(perm([1, 0, 2])) == perm([1, 0, 2])


@given(small_perms)
@settings(deadline=None)
def test_compose_associative_and_inverse(triple):
    a, b, c = triple
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, inverse(a)) == identity(a.n)
    assert compose(inverse(a), a) == identity(a.n)


def test_element_order_examples():
    assert element_order(identity(5)) == 1
    assert element_order(ROT1_4) == 4
    assert element_order(perm([1, 0, 3, 2])) == 2


def test_closure_trivial_and_cyclic():
    assert closure(generator_set(4, [range(4)])).order == 1
    S = generator_set(4, [[0, 1, 2, 3], [1, 2, 3, 0]])
    assert closure(S).order == 4


def test_closure_symmetric_group():
    S = generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]])
    G = closure(S)
    assert G.order == 6


def test_closure_without_identity_still_contains_it():
    G = closure(generator_set(4, [[1, 2, 3, 0]]))
    assert G.order == 4
    assert identity(4) in G


def test_closure_is_a_group():
    S = generator_set(4, [[1, 0, 2, 3], [0, 1, 3, 2]])
    G = closure(S)
    elements = set(G.elements)
    assert identity(4) in elements
    for a in elements:
        assert inverse(a) in elements
        for b in elements:
            assert compose(a, b) in elements
    assert math.factorial(4) % G.order == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closure_order_divides_factorial(n):
    S = generator_set(n, [[(i + 1) % n for i in range(n)], [1, 0] + list(range(2, n))])
    G = closure(S)
    assert math.factorial(n) % G.order == 0


def test_normalize_identity_noop():
    S = rotation_generators(4)
    assert normalize_generators(S, identity(4)) == S


def test_normalize_rotations():
    S = generator_set(4, [[1, 2, 3, 0], [2, 3, 0, 1]])
    out = normalize_generators(S, perm([1, 2, 3, 0]))
    assert out.perms == (identity(4), perm([1, 2, 3, 0]))


def test_normalize_involution():
    S = generator_set(2, [[1, 0]])
    out = normalize_generators(S, perm([1, 0]))
    assert out.perms == (identity(2),)


def test_normalize_requires_membership():
    with pytest.raises(ValueError):
        normalize_generators(rotation_generators(3), perm([1, 0, 2]))


def test_normalize_preserves_group_order():
    for n in (3, 4, 6):
        S = generator_set(n, [rotation(n, 1).mapping, rotation(n, 2).mapping])
        before = closure(S).order
        after = closure(normalize_generators(S, rotation(n, 1))).order
        assert before == after


def test_cauchy_rotation_group():
    G = closure(rotation_generators(4))
    c = cauchy_element(G, 2)
    assert c == rotation(4, 2)
    assert element_order(c) == 2


def test_cauchy_symmetric_group():
    G = closure(generator_set(3, [[0, 1, 2], [1, 0, 2], [1, 2, 0]]))
    c = cauchy_element(G, 3)
    assert element_order(c) == 3


def test_cauchy_requires_divisor():
    G = closure(generator_set(2, [[0, 1]]))
    with pytest.raises(ValueError):
        cauchy_element(G, 2)


@pytest.mark.parametrize("n,p", [(4, 2), (6, 2), (6, 3), (9, 3), (10, 5)])
def test_cauchy_order_is_exactly_p(n, p):
    G = closure(rotation_generators(n))
    assert element_order(cauchy_element(G, p)) == p


@pytest.mark.parametrize(
    "gens",
    [[[1, 2, 3, 0]], [[1, 0, 2, 3]], [[1, 0, 2, 3], [1, 2, 3, 0]], [[0, 1, 2, 3]]],
    ids=["rot-4", "swap", "sym-4", "trivial"],
)
def test_group_membership_matches_element_scan(gens):
    G = closure(generator_set(4, gens).with_identity())
    for images in itertools.permutations(range(4)):
        g = perm(images)
        assert (g in G) == any(h == g for h in G.elements)
    assert perm([1, 0, 2]) not in G


def test_cyclic_blocks_rotations():
    G = closure(rotation_generators(4))
    blocks = cyclic_blocks(G, rotation(4, 2), 2)
    assert sorted(blocks) == [(0, 2), (1, 3)]


def test_cyclic_blocks_full_orbit():
    G = closure(rotation_generators(3))
    assert cyclic_blocks(G, rotation(3, 1), 3) == [(0, 1, 2)]


def test_cyclic_blocks_outside_orbit():
    swap = perm([1, 0, 2, 3])
    G = closure(generator_set(4, [swap.mapping]))
    assert cyclic_blocks(G, swap, 2) == [(0, 1)]


def test_cyclic_blocks_requires_membership():
    G = closure(rotation_generators(4))
    with pytest.raises(ValueError):
        cyclic_blocks(G, perm([1, 0, 2, 3]), 2)


def test_cyclic_blocks_anchor_moves_off_fixed_zero():
    # The order-2 element here fixes position 0, so blocks anchor at the
    # smallest moved position instead of degenerating to singletons.
    swap12 = perm([0, 2, 1])
    G = closure(generator_set(3, [swap12.mapping]))
    assert cyclic_blocks(G, swap12, 2) == [(1, 2)]


@pytest.mark.parametrize(
    "n,p,c_rot",
    [(4, 2, 2), (6, 3, 2), (6, 2, 3), (8, 2, 4), (9, 3, 3)],
)
def test_cyclic_blocks_sizes_and_coverage(n, p, c_rot):
    G = closure(rotation_generators(n))
    c = rotation(n, c_rot)
    assert element_order(c) == p
    blocks = cyclic_blocks(G, c, p)
    for b in blocks:
        assert len(b) in (1, p)
    covered = sorted({i for b in blocks for i in b})
    assert covered == list(range(n))  # rotations act transitively


def _symmetric(n):
    return generator_set(n, [list(range(n)), [1, 0] + list(range(2, n)), rotation(n, 1).mapping])


# Every fixed generator set the test suite builds, except the 40 320
# permutations of 8 points in test_verify, whose breadth-first enumeration
# would compose 40 320 x 40 320 pairs; it is checked by its own order below.
GENERATOR_SETS_IN_TESTS = (
    [rotation_generators(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)]
    + [generator_set(n, [list(range(n))]) for n in (1, 2, 3, 4, 5)]
    + [_symmetric(n) for n in (2, 3, 4, 5, 6)]
    + [
        generator_set(2, [[1, 0]]),
        generator_set(3, [[0, 1, 2], [1, 2, 0]]),
        generator_set(3, [[0, 1, 2], [0, 2, 1]]),
        generator_set(3, [[0, 2, 1]]),
        generator_set(4, [[1, 2, 3, 0]]),
        generator_set(4, [[1, 0, 2, 3]]),
        generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]]),
        generator_set(4, [[1, 0, 2, 3], [0, 1, 3, 2]]),
        generator_set(4, [[1, 0, 2, 3], [1, 2, 3, 0]]),
        generator_set(4, [[0, 1, 2, 3], [2, 3, 0, 1]]),
        generator_set(4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1]]),
        generator_set(4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
        generator_set(4, [[0, 1, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0]]),
        generator_set(4, itertools.permutations(range(4))),
        generator_set(6, [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3]]),
        generator_set(8, [[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]),
        # The relabeled S_8 of the certificate pins in test_refutation.
        generator_set(
            8,
            [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 7, 4, 5, 6, 3], [5, 6, 4, 7, 3, 1, 2, 0]],
        ),
    ]
)


def _random_generator_sets(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield generator_set(n, [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))])


@pytest.mark.parametrize("source", ["tests", "random"])
def test_group_order_matches_enumeration(source):
    # The order comes from the stabilizer chain; the elements come from a
    # plain breadth-first closure of the generators.  They must agree, and
    # every enumerated element must sift through the chain.
    sets = GENERATOR_SETS_IN_TESTS if source == "tests" else list(_random_generator_sets(300, 77))
    for S in sets:
        G = closure(S)
        elements = set(G.elements)
        assert G.order == len(elements), S
        assert all(g in G for g in elements)


def test_group_order_of_every_permutation_of_8_points():
    S = generator_set(8, itertools.permutations(range(8)))
    assert closure(S).order == len(set(S.perms)) == math.factorial(8)


def test_alternating_group_order_and_membership():
    # A_16 from the 3-cycles (0 1 i): far too large to list, and sifting
    # must reject odd permutations.
    n = 16
    gens = []
    for i in range(2, n):
        g = list(range(n))
        g[0], g[1], g[i] = 1, i, 0
        gens.append(g)
    G = closure(generator_set(n, gens))
    assert G.order == math.factorial(n) // 2
    assert perm([1, 0, 3, 2] + list(range(4, n))) in G
    assert perm([1, 0] + list(range(2, n))) not in G
    assert perm(list(range(1, n)) + [0]) not in G


def test_group_elements_follow_breadth_first_order():
    # Generators first in listed order, then products a*g with g on the right.
    G = closure(generator_set(3, [[1, 0, 2], [1, 2, 0]]))
    assert [g.mapping for g in G.elements] == [
        (1, 0, 2), (1, 2, 0), (0, 1, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1)
    ]
