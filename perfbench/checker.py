"""Output checks for every benchmark op.

Each check takes the op's exit code and output document and raises Mismatch
when either is wrong.  Witnesses are replayed by this module's own
permute-add-mod-m loop, never by the program's simulator, so the program
cannot vouch for itself.
"""

import math


class Mismatch(Exception):
    """An op's exit code or output disagrees with the known answer."""


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def check_strategy(rc: int, doc: dict, n: int, m: int):
    """A synthesized winner: exit 0 and exactly m^n - 1 moves in range."""
    expect(rc == 0, f"synth exited {rc}")
    expect(doc["n"] == n and doc["m"] == m, "synth wrote the wrong game")
    moves = doc["moves"]
    expect(len(moves) == m**n - 1, f"synth wrote {len(moves)} moves, want {m**n - 1}")
    expect(all(len(y) == n for y in moves), "a move has the wrong length")
    expect(min(map(min, moves)) >= 0 and max(map(max, moves)) < m, "a move entry is out of range")


def check_win(rc: int, verdict: dict, n: int, m: int):
    """A winner: exit 0, wins, and every round of the optimal length checked."""
    expect(rc == 0, f"verify of a winner exited {rc}")
    expect(verdict["wins"] is True, "verify rejected a winner")
    expect(verdict["steps_checked"] == m**n - 1, "a winner did not take m^n - 1 rounds")


def check_loss(rc: int, verdict: dict, max_steps: int, steps=None):
    """A loser: exit 1 and wins = false, within the strategy's length."""
    expect(rc == 1, f"verify of a loser exited {rc}")
    expect(verdict["wins"] is False, "verify accepted a losing strategy")
    expect(1 <= verdict["steps_checked"] <= max_steps, "steps_checked out of range")
    if steps is not None:
        expect(verdict["steps_checked"] == steps, f"loser stopped after {verdict['steps_checked']} rounds, want {steps}")


def replay(doc: dict, start, perms):
    """Play the adversary line (start, perms) against the strategy document
    and raise Mismatch unless the counters stay nonzero to the end."""
    n, m, moves = doc["n"], doc["m"], doc["moves"]
    gens = [list(g) for g in doc["generators"]]
    if list(range(n)) not in gens:
        gens.insert(0, list(range(n)))
    expect(len(start) == n and all(0 <= e < m for e in start), "witness start is malformed")
    expect(len(perms) == len(moves), "witness has one generator per move")
    expect(all(0 <= k < len(gens) for k in perms), "witness names an unknown generator")
    x = list(start)
    expect(any(x), "witness starts at zero")
    for k, y in zip(perms, moves):
        g = gens[k]
        permuted = [0] * n
        for i, e in enumerate(x):
            permuted[g[i]] = e
        x = [(a + b) % m for a, b in zip(permuted, y)]
        expect(any(x), "witness reaches zero")


def check_witness(rc: int, verdict: dict, doc: dict):
    """A loser verified with --witness: the full length is checked and the
    witness survives a replay."""
    check_loss(rc, verdict, len(doc["moves"]), steps=len(doc["moves"]))
    witness = verdict.get("witness")
    expect(witness is not None, "verify --witness gave no witness")
    replay(doc, witness["start"], witness["perms"])


def check_decision(rc: int, doc: dict, group_order: int, solvable: bool):
    expect(rc == (0 if solvable else 1), f"decide exited {rc}")
    expect(doc["solvable"] is solvable, "decide got solvability wrong")
    expect(doc["group_order"] == group_order, f"decide found order {doc['group_order']}, want {group_order}")


def _order(c) -> int:
    seen, order = set(), 1
    for x in range(len(c)):
        if x in seen:
            continue
        length, y = 0, x
        while y not in seen:
            seen.add(y)
            y = c[y]
            length += 1
        order = math.lcm(order, length)
    return order


def check_certificate(rc: int, cert: dict):
    """refute: exit 0, distinct primes, and c a permutation of order p."""
    expect(rc == 0, f"refute exited {rc}")
    expect(cert["p"] != cert["q"], "certificate primes are equal")
    c = cert["c"]
    expect(sorted(c) == list(range(len(c))), "certificate c is not a permutation")
    expect(_order(c) == cert["p"], "certificate c does not have order p")
