"""Seeded benchmark inputs.

Every document the program under test verifies is derived here from a
``random.Random(seed)`` and written with plain ``json``, never with
``spintable.io``, so the program never produces the inputs it is judged on.

Relabeling positions by a permutation sigma maps one game onto an isomorphic
one: generator g becomes sigma g sigma^-1 and move y is permuted like a
configuration.  Wins, losses and round counts are unchanged, which lets a
seed vary the inputs of a synthesized winner without changing its verdict.
"""

import json
import random
from operator import itemgetter
from pathlib import Path


def rotations(n: int) -> list[list[int]]:
    """All n rotations in image form, identity first."""
    return [[(i + k) % n for i in range(n)] for k in range(n)]


def symmetric_generators(n: int) -> list[list[int]]:
    """A transposition and an n-cycle, which generate S_n."""
    swap = [1, 0] + list(range(2, n))
    cycle = [(i + 1) % n for i in range(n)]
    return [swap, cycle]


def relabeling(n: int, rng: random.Random) -> list[int]:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def relabel_perm(g, sigma) -> list[int]:
    """sigma g sigma^-1 in image form: position sigma(i) goes to sigma(g(i))."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[sigma[i]] = sigma[gi]
    return out


def relabel_doc(doc: dict, sigma) -> dict:
    """The strategy document of the relabeled game (n >= 2); metadata is dropped."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    take = itemgetter(*inv)
    return {
        "n": doc["n"],
        "m": doc["m"],
        "generators": [relabel_perm(g, sigma) for g in doc["generators"]],
        "moves": [take(y) for y in doc["moves"]],
    }


def random_doc(n: int, m: int, length: int, rng: random.Random) -> dict:
    """A rotation-game strategy of uniformly random moves."""
    moves = [[rng.randrange(m) for _ in range(n)] for _ in range(length)]
    return {"n": n, "m": m, "generators": rotations(n), "moves": moves}


def truncated(doc: dict) -> dict:
    """The strategy with its last move dropped."""
    return dict(doc, moves=doc["moves"][:-1])


def zero_first_move(doc: dict) -> dict:
    """The strategy with its first move replaced by the zero vector."""
    return dict(doc, moves=[[0] * doc["n"]] + doc["moves"][1:])


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def read_doc(path: Path):
    return json.loads(Path(path).read_text())
