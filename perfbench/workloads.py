"""The benchmark's workloads: the ops each runs in a closed loop, with checks.

An op is one ``spintable`` invocation.  Its check receives the exit code and
standard output, reads any document the op wrote, raises checker.Mismatch on
a wrong answer and returns the op's output document.

Why each workload exists (the layers it stresses and the ones it bypasses):

* win-dense: verify of synthesized winners is kernel-bound on the composed
  table cache, and the one ``--threads 2`` op is the only place thread
  partitioning is measured.
* lose-random: random strategies of unwinnable games defeat the composed
  cache (every move is new), so rounds go through move tables and the
  indirect kernel; witness ops exercise the recording kernel and the
  per-round log.  Documents are small and there is no group work.
* large-doc: synth and a one-round verify of 823 542-move documents are io-
  and table-build-bound with almost no kernel work.
* group-refute: decide and refute on S_8 and unwinnable rotation games are
  the pure-Python group closure and refute oracle; verify, the kernels and
  strategy io do nothing, so their optimisations must not move it.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker
import inputs


@dataclass
class Op:
    kind: str  # setup | synth | verify | decide | refute
    argv: list[str]
    check: Callable[[int, str], dict]
    states: int = 0  # m^n of a verify op, for verify_rate
    role: str = ""  # "seq" or "par": the 1- and 2-thread runs of one verify


class Inputs:
    """Where one run's documents live and the seeded generator making them.

    ``synth`` asks the program once, during preparation, for a winner to
    derive inputs from; it is not timed.
    """

    def __init__(self, work: Path, rng, synth: Callable[[int, int, Path], dict]):
        self.work = work
        self.rng = rng
        self._synth = synth

    def path(self, name: str) -> Path:
        return self.work / name

    def winner(self, n: int, m: int) -> dict:
        return self._synth(n, m, self.path(f"prep-rot-{n}-{m}.json"))

    def write(self, name: str, doc) -> str:
        return str(inputs.write_doc(self.path(name), doc))


def setup_op() -> Op:
    """A no-work invocation: its wall is CLI start-up."""
    def check(rc, out):
        doc = json.loads(out)
        checker.check_decision(rc, doc, 1, True)
        return doc

    return Op("setup", ["decide", "-n", "1", "-m", "1", "--rotations"], check)


def synth_op(ctx: Inputs, n: int, m: int) -> Op:
    out = ctx.path(f"synth-rot-{n}-{m}.json")

    def check(rc, _):
        doc = inputs.read_doc(out)
        checker.check_strategy(rc, doc, n, m)
        return doc

    argv = ["synth", "-n", str(n), "-m", str(m), "--rotations", "-o", str(out)]
    return Op("synth", argv, check)


def verify_op(path: str, check_verdict, states: int, extra=(), role="") -> Op:
    def check(rc, out):
        verdict = json.loads(out)
        check_verdict(rc, verdict)
        return verdict

    return Op("verify", ["verify", path, *extra], check, states=states, role=role)


def relabeled_winner(ctx: Inputs, n: int, m: int) -> dict:
    return inputs.relabel_doc(ctx.winner(n, m), inputs.relabeling(n, ctx.rng))


def win_dense(ctx: Inputs, dense=((9, 3), (3, 27))) -> list[Op]:
    """synth, then verify of relabeled winners; the last one is verified
    again with two threads."""
    ops = [synth_op(ctx, n, m) for n, m in dense]
    for i, (n, m) in enumerate(dense):
        path = ctx.write(f"win-rot-{n}-{m}.json", relabeled_winner(ctx, n, m))

        def check(rc, verdict, n=n, m=m):
            checker.check_win(rc, verdict, n, m)

        last = i == len(dense) - 1
        ops.append(verify_op(path, check, m**n, role="seq" if last else ""))
        if last:
            ops.append(verify_op(path, check, m**n, extra=("--threads", "2"), role="par"))
    return ops


def lose_random(ctx: Inputs, random_specs=((12, 2), (5, 6)), witness_specs=((5, 5), (8, 2))) -> list[Op]:
    """verify of random strategies of length 2 m^n for unwinnable games, and
    verify --witness of relabeled winners with the last move dropped."""
    ops = []
    for n, m in random_specs:
        doc = inputs.random_doc(n, m, 2 * m**n, ctx.rng)
        path = ctx.write(f"random-rot-{n}-{m}.json", doc)

        def check(rc, verdict, length=len(doc["moves"])):
            checker.check_loss(rc, verdict, length)

        ops.append(verify_op(path, check, m**n))
    for n, m in witness_specs:
        doc = inputs.truncated(relabeled_winner(ctx, n, m))
        path = ctx.write(f"truncated-rot-{n}-{m}.json", doc)

        def check(rc, verdict, doc=doc):
            checker.check_witness(rc, verdict, doc)

        ops.append(verify_op(path, check, m**n, extra=("--witness",)))
    return ops


def large_doc(ctx: Inputs, big=(7, 7), lift=(8, 4)) -> list[Op]:
    """synth of a large winner and of a lift, and verify of the large winner
    with its first move zeroed, which loses after one round."""
    n, m = big
    doc = inputs.zero_first_move(relabeled_winner(ctx, n, m))
    path = ctx.write(f"mutant-rot-{n}-{m}.json", doc)

    def check(rc, verdict, length=len(doc["moves"])):
        checker.check_loss(rc, verdict, length, steps=1)

    return [synth_op(ctx, *big), synth_op(ctx, *lift), verify_op(path, check, m**n)]


def group_refute(ctx: Inputs, sym_n=8, rotation_specs=((12, 2), (15, 4)), rounds=20_000) -> list[Op]:
    """decide and refute on S_n (relabeled generators, m = 2) and on
    unwinnable rotation games."""
    sigma = inputs.relabeling(sym_n, ctx.rng)
    gens = [inputs.relabel_perm(g, sigma) for g in inputs.symmetric_generators(sym_n)]
    gens_path = ctx.write(f"gens-sym-{sym_n}.json", gens)
    games = [(sym_n, 2, ["--gens", gens_path], math.factorial(sym_n))]
    games += [(n, m, ["--rotations"], n) for n, m in rotation_specs]
    ops = []
    for n, m, source, order in games:
        spec = ["-n", str(n), "-m", str(m), *source]

        def decided(rc, out, order=order):
            doc = json.loads(out)
            checker.check_decision(rc, doc, order, False)
            return doc

        cert_path = ctx.path(f"cert-{n}-{m}.json")

        def refuted(rc, _, cert_path=cert_path):
            cert = inputs.read_doc(cert_path)
            checker.check_certificate(rc, cert)
            return cert

        seed = str(ctx.rng.randrange(1 << 30))
        ops.append(Op("decide", ["decide", *spec], decided))
        refute = ["refute", *spec, "--rounds", str(rounds), "--seed", seed, "-o", str(cert_path)]
        ops.append(Op("refute", refute, refuted))
    return ops


WORKLOADS = {
    "win-dense": win_dense,
    "lose-random": lose_random,
    "large-doc": large_doc,
    "group-refute": group_refute,
}
