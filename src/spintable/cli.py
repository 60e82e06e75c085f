"""Command-line front end.

Subcommands: decide, synth, verify, refute, play, bench.  Documents travel
as canonical JSON (see io.py).  Exit codes: 0 for the affirmative outcome
(solvable / wins / invariant held), 1 for the negative one, 2 for malformed
input, exceeded caps, or I/O failure.

decide and refute are integer work.  The verifier is imported inside the
commands that run it (verify, bench), and NumPy only by the verifier and the
strategy constructions, so those two commands load neither.
"""

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

from . import io as sio
from .errors import SolvableSpec, SpintableError, UnsolvableSpec
from .game import DEFAULT_STATE_CAP, GameSpec, Strategy, act, config_digits, mod_vector, zero_vector
from .kernels import available_backends, default_backend_name
from .perm import rotation_generators
from .refute import adversary_move, build_certificate, initial_bad_config, is_semi_homogeneous
from .solve import decide, synth


def _count_at_least(low: int):
    """An argparse type for integers >= low; anything else exits 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_THREADS_HELP = (
    "worker threads for dense rounds, capped at the CPUs this process may use"
    " and used only on rounds large enough to gain from them;"
    " the verdict does not depend on it"
)
_NONNEGATIVE = _count_at_least(0)
_POSITIVE = _count_at_least(1)


def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("-n", type=int, required=True, help="number of positions")
    p.add_argument("-m", type=int, required=True, help="counter modulus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--rotations", action="store_true", help="adversary may apply any rotation"
    )
    src.add_argument(
        "--gens",
        metavar="JSON_OR_PATH",
        help="JSON array of permutation arrays, inline or a file path; identity implied",
    )


def _spec_from_args(args) -> GameSpec:
    if args.rotations:
        S = rotation_generators(args.n)
    else:
        text = args.gens
        if not text.lstrip().startswith("["):
            text = Path(text).read_text()
        S = sio.generators_from_json(args.n, text)
    return GameSpec(args.n, args.m, S)


def _emit(doc_text: str, out_path):
    if out_path:
        Path(out_path).write_text(doc_text)
    else:
        sys.stdout.write(doc_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintable",
        description="Solve, verify, and refute blindfolded spinning-table counter games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="is this game winnable at all?")
    _add_spec_args(p_decide)

    p_synth = sub.add_parser("synth", help="construct a winning strategy")
    _add_spec_args(p_synth)
    p_synth.add_argument("-o", metavar="PATH", help="write the strategy file here")

    p_verify = sub.add_parser("verify", help="exhaustively verify a strategy file")
    p_verify.add_argument("strategy", help="strategy JSON file")
    p_verify.add_argument("-o", metavar="PATH", help="write the verdict here")
    p_verify.add_argument("--witness", action="store_true", help="extract a losing line")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP, help="state cap")
    p_verify.add_argument("--threads", type=_POSITIVE, default=1, help=_THREADS_HELP)
    p_verify.add_argument("--backend", choices=available_backends())

    p_refute = sub.add_parser("refute", help="emit a certificate and fuzz its invariant")
    _add_spec_args(p_refute)
    p_refute.add_argument("-o", metavar="PATH", help="write the certificate here")
    p_refute.add_argument("--rounds", type=_NONNEGATIVE, default=1000, help="adversary rounds to fuzz")
    p_refute.add_argument("--seed", type=int, default=0)

    p_play = sub.add_parser("play", help="play the adversary against a strategy")
    _add_spec_args(p_play)
    p_play.add_argument("--strategy", metavar="PATH", help="strategy file (default: synthesize)")
    p_play.add_argument("--start", metavar="CSV", help="start configuration, e.g. 1,0,2")
    p_play.add_argument("--seed", type=int, default=0, help="seed for a random start")

    p_bench = sub.add_parser("bench", help="time the verifier and report throughput")
    _add_spec_args(p_bench)
    p_bench.add_argument(
        "--backend",
        choices=available_backends() + ["all"],
        default="all",
        help="which kernel to time (default: every available one)",
    )
    p_bench.add_argument("--threads", type=_POSITIVE, default=1, help=_THREADS_HELP)
    p_bench.add_argument("--repeat", type=_POSITIVE, default=3)
    p_bench.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p_bench.add_argument("-o", metavar="PATH", help="write the report here")
    return parser


def _cmd_decide(args) -> int:
    verdict = decide(_spec_from_args(args))
    doc = {
        "solvable": verdict.solvable,
        "group_order": verdict.group_order,
        "reason": verdict.reason,
        "p": verdict.p,
        "a": verdict.a,
        "b": verdict.b,
    }
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0 if verdict.solvable else 1


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    try:
        strategy = synth(spec)
    except UnsolvableSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run `spintable refute` for an impossibility certificate", file=sys.stderr)
        return 1
    _emit(sio.dump_strategy(strategy), args.o)
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_strategy

    strategy = sio.load_strategy(Path(args.strategy).read_text())
    verdict = verify_strategy(
        strategy,
        want_witness=args.witness,
        state_cap=args.cap,
        threads=args.threads,
        backend=args.backend,
    )
    _emit(sio.dump_verdict(verdict), args.o)
    return 0 if verdict.wins else 1


def _cmd_refute(args) -> int:
    spec = _spec_from_args(args)
    try:
        cert = build_certificate(spec)
    except SolvableSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run `spintable synth` for a winning strategy", file=sys.stderr)
        return 1
    _emit(sio.dump_certificate(cert), args.o)
    # Each round's move is one uniform draw over all m^n moves.
    rng = random.Random(args.seed)
    x = initial_bad_config(cert, spec.m)
    for _ in range(args.rounds):
        y = config_digits(rng.randrange(spec.state_count), spec.n, spec.m)
        _, x = adversary_move(x, y, cert, spec)
        if is_semi_homogeneous(x, cert) or not any(x):
            raise AssertionError("adversary invariant broke; certificate is unsound")
    print(f"invariant held for {args.rounds} rounds", file=sys.stderr)
    return 0


def _cmd_play(args) -> int:
    spec = _spec_from_args(args)
    if args.strategy:
        strategy = sio.load_strategy(Path(args.strategy).read_text())
        if strategy.spec != spec:
            print("error: strategy file does not match the given spec", file=sys.stderr)
            return 2
    else:
        try:
            strategy = synth(spec)
        except UnsolvableSpec as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.start:
        entries = [int(v) for v in args.start.split(",")]
        if len(entries) != spec.n:
            print("error: start configuration has the wrong length", file=sys.stderr)
            return 2
        if not all(0 <= v < spec.m for v in entries):
            print(f"error: start entries must lie in [0, {spec.m})", file=sys.stderr)
            return 2
        x = mod_vector(spec.m, entries)
    else:
        rng = random.Random(args.seed)
        x = zero_vector(spec.m, spec.n)
        while x.is_zero() and spec.state_count > 1:
            x = mod_vector(spec.m, (rng.randrange(spec.m) for _ in range(spec.n)))
    print("you are the adversary: pick a permutation each round, then the move is added")
    for i, g in enumerate(spec.S.perms):
        label = " (identity)" if g.is_identity() else ""
        print(f"  generator {i}: {list(g.mapping)}{label}")
    print(f"config: {list(x.entries)}")
    if x.is_zero():
        print("WIN: the counters started at zero")
        return 0
    for k, y in enumerate(strategy.moves, start=1):
        print(f"move {k}/{len(strategy.moves)}: {list(y.entries)}")
        choice = None
        while choice is None:
            print(f"adversary index [0..{len(spec.S) - 1}]> ", end="", flush=True)
            line = sys.stdin.readline()
            if not line:
                print("\nerror: input ended before the game did", file=sys.stderr)
                return 2
            try:
                value = int(line.strip())
                if not 0 <= value < len(spec.S):
                    raise ValueError
                choice = value
            except ValueError:
                print("not a valid generator index", file=sys.stderr)
        x = act(spec.S.perms[choice], x) + y
        print(f"config: {list(x.entries)}")
        if x.is_zero():
            print(f"WIN: all counters reached zero after move {k}")
            return 0
    print("SURVIVED: the strategy ended without zeroing the counters")
    return 1


def _cmd_bench(args) -> int:
    from .verify import bench_verify

    spec = _spec_from_args(args)
    try:
        strategy = synth(spec)
    except UnsolvableSpec:
        rng = random.Random(0)
        length = min(spec.state_count, 4096)
        moves = tuple(
            mod_vector(spec.m, (rng.randrange(spec.m) for _ in range(spec.n)))
            for _ in range(length)
        )
        strategy = Strategy(spec, moves)
    backends = available_backends() if args.backend == "all" else [args.backend]
    results = [
        dataclasses.asdict(
            bench_verify(
                strategy, backend=name, threads=args.threads, repeat=args.repeat, state_cap=args.cap
            )
        )
        for name in backends
    ]
    doc = {"default_backend": default_backend_name(), "results": results}
    _emit(json.dumps(doc, separators=(",", ":")) + "\n", args.o)
    return 0


_COMMANDS = {
    "decide": _cmd_decide,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "refute": _cmd_refute,
    "play": _cmd_play,
    "bench": _cmd_bench,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpintableError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
