import dataclasses
import hashlib
import io
import json
import random

import pytest

from conftest import rot_spec
from spintable import GameSpec, Strategy, generator_set, mod_vector, simulate_trace, synth
from spintable import io as sio
from spintable.cli import run
from spintable.refute import build_certificate
from spintable.verify import BenchResult, Verdict, Witness, verify_dense, verify_strategy


def test_strategy_round_trip_is_byte_stable():
    strategy = synth(rot_spec(4, 2))
    text = sio.dump_strategy(strategy)
    again = sio.load_strategy(text)
    assert again == strategy
    assert sio.dump_strategy(again) == text


KLEIN = generator_set(4, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])

# sha256 of dump_strategy(synth(spec)): the strategy documents are byte-stable.
GOLDEN_STRATEGY_SHA256 = [
    (rot_spec(4, 2), "2ef5fe4a8c130ee5147c5090b680bc5617d83f79cadb88aaf79386175ffa688a"),
    (rot_spec(8, 4), "23b18aaf1c0e0975e46e0ea242ae666f5ab8251491f5299a729d930ba2be9988"),
    (rot_spec(3, 27), "01ba54df8bb4e7dc017887ff75ba3b3681c23a4aff9a3c0353fc5eb73f3d4c05"),
    (rot_spec(9, 3), "81a942e3b3f250992bad1cffbdc3649410b9ba32f4c68b8366f6c5dedcdf8b48"),
    (rot_spec(7, 7), "2e7562b560eb9aef99d6eb5388a17bd0a115454d159a5e07224b02c1965c0ab7"),
    (
        GameSpec(4, 3, generator_set(4, [[0, 1, 2, 3]])),
        "af739d2c25381ca8774e42b7cb1b05ab7480022241dbe8165c0c0c678683d45c",
    ),
    # Ruler schedules over invariant-chain bases, and one lift over such a base.
    (
        GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 0, 2, 3]])),
        "206129306b4011c183e26ee2fc27b136e634735f400b579fbf3fbe0e8154782c",
    ),
    (GameSpec(4, 2, KLEIN), "ba8c0252920a9b08d4ae729d05f4c58c7816753acfd64d1894e3e16ec38161ba"),
    (
        GameSpec(4, 2, generator_set(4, [[0, 1, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0]])),
        "91e6d9cec1f85ebfbca5bbaf9d4852e13c462a831db44c8ddaeceeff9577fb8e",
    ),
    (GameSpec(4, 4, KLEIN), "bd74d2a6465f6b8659a20d31bbcdd05aeeb6963107dc417ff86039874fbccca9"),
    (
        GameSpec(6, 3, generator_set(6, [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3]])),
        "0756b034737a8a848e06fc5d9b7945fd41949e3cc497047f5aff7b58f9503ee1",
    ),
]


@pytest.mark.parametrize(
    "spec,digest",
    GOLDEN_STRATEGY_SHA256,
    ids=[
        "rot-4-2",
        "rot-8-4",
        "rot-3-27",
        "rot-9-3",
        "rot-7-7",
        "trivial-4-3",
        "swap01-4-2",
        "klein-4-2",
        "dihedral-4-2",
        "klein-4-4",
        "diagonal-c3-6-3",
    ],
)
def test_strategy_dump_golden_digest(spec, digest):
    text = sio.dump_strategy(synth(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _reference_dump(strategy: Strategy) -> str:
    spec = strategy.spec
    doc = {
        "n": spec.n,
        "m": spec.m,
        "generators": [list(g.mapping) for g in spec.S.perms],
        "moves": [list(y.entries) for y in strategy.moves],
    }
    if strategy.metadata is not None:
        doc["metadata"] = strategy.metadata
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _random_document(n, m, length, seed) -> str:
    rng = random.Random(seed)
    moves = [[rng.randrange(m) for _ in range(n)] for _ in range(length)]
    return json.dumps({"n": n, "m": m, "generators": [[1, 2, 0]], "moves": moves})


def _dump_reference_cases():
    spec = rot_spec(3, 3)
    shared = synth(spec)
    unshared = Strategy(spec, tuple(mod_vector(3, y.entries) for y in shared.moves))
    loaded = sio.load_strategy(_random_document(3, 5, 400, seed=3))
    return [
        ("shared", shared),
        ("unshared-equal", unshared),
        ("empty", Strategy(rot_spec(2, 1), ())),
        ("empty-with-metadata", Strategy(rot_spec(2, 1), (), metadata={"construction": "gray"})),
        ("no-metadata", Strategy(spec, shared.moves)),
        ("non-ascii-metadata", Strategy(spec, shared.moves, metadata={"note": "héllo ✓", "k": [1]})),
        ("one-position", synth(GameSpec(1, 5, generator_set(1, [[0]])))),
        ("loaded-random", loaded),
    ]


DUMP_REFERENCE_CASES = _dump_reference_cases()


@pytest.mark.parametrize(
    "label,strategy", DUMP_REFERENCE_CASES, ids=[c[0] for c in DUMP_REFERENCE_CASES]
)
def test_strategy_dump_matches_reference(label, strategy):
    text = sio.dump_strategy(strategy)
    assert text == _reference_dump(strategy)
    assert sio.load_strategy(text) == strategy


def test_strategy_load_adds_implied_identity():
    doc = {"n": 2, "m": 2, "generators": [[1, 0]], "moves": [[1, 1]]}
    strategy = sio.load_strategy(json.dumps(doc))
    assert strategy.spec.S.perms[0].is_identity()
    assert len(strategy.spec.S) == 2


def test_strategy_load_rejects_malformed():
    with pytest.raises(ValueError):
        sio.load_strategy(json.dumps({"n": 2, "m": 2, "generators": []}))
    with pytest.raises(ValueError):
        sio.load_strategy(json.dumps({"n": 2, "m": 2, "generators": [[0, 0]], "moves": []}))


MALFORMED_MOVES = [
    ("not-a-list", 5),
    ("row-not-a-list", [5, 5]),
    ("row-too-short", [[1, 0], [1]]),
    ("row-too-long", [[1, 0, 1]]),
    ("float", [[1.5, 0]]),
    ("integral-float", [[1.0, 0]]),
    ("boolean", [[True, 0]]),
    ("all-boolean", [[True, False]]),
    ("string", [["1", 0]]),
    ("null", [[None, 0]]),
    ("out-of-range", [[2, 0]]),
    ("negative", [[-1, 0]]),
    ("huge", [[2**70, 0]]),
    ("nested", [[[1], 0]]),
]


def malformed_doc(moves) -> str:
    return json.dumps({"n": 2, "m": 2, "generators": [[1, 0]], "moves": moves})


@pytest.mark.parametrize("label,moves", MALFORMED_MOVES, ids=[c[0] for c in MALFORMED_MOVES])
def test_strategy_load_rejects_malformed_moves(label, moves):
    with pytest.raises(ValueError):
        sio.load_strategy(malformed_doc(moves))


@pytest.mark.parametrize("label,moves", MALFORMED_MOVES, ids=[c[0] for c in MALFORMED_MOVES])
def test_cli_verify_malformed_moves_exit_2(label, moves, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(malformed_doc(moves))
    assert run(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


MALFORMED_GENERATORS = [
    ("not-a-list", 5),
    ("empty", []),
    ("entry-not-a-list", [5]),
    ("string", ["10"]),
    ("float", [[1.5, 0.0]]),
    ("integral-float", [[1.0, 0.0]]),
    ("boolean", [[True, False]]),
    ("mixed-boolean", [[1, False]]),
    ("string-entry", [["1", 0]]),
    ("null-entry", [[None, 0]]),
    ("nested", [[[1], 0]]),
    ("not-a-permutation", [[0, 0]]),
    ("wrong-size", [[0, 1, 2]]),
    ("huge", [[2**70, 0]]),
]


def gens_doc(gens) -> str:
    return json.dumps({"n": 2, "m": 2, "generators": gens, "moves": [[1, 1]]})


@pytest.mark.parametrize("label,gens", MALFORMED_GENERATORS, ids=[c[0] for c in MALFORMED_GENERATORS])
def test_strategy_load_rejects_malformed_generators(label, gens):
    with pytest.raises(ValueError):
        sio.load_strategy(gens_doc(gens))
    with pytest.raises(ValueError):
        sio.generators_from_json(2, json.dumps(gens))


@pytest.mark.parametrize("label,gens", MALFORMED_GENERATORS, ids=[c[0] for c in MALFORMED_GENERATORS])
def test_cli_malformed_generators_exit_2(label, gens, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(gens_doc(gens))
    assert run(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps(gens))
    assert run(["decide", "-n", "2", "-m", "2", "--gens", str(gens_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_strategy_load_rejects_boolean_dimensions():
    for key in ("n", "m"):
        doc = {"n": 1, "m": 2, "generators": [[0]], "moves": [[1]]}
        doc[key] = True
        with pytest.raises(ValueError):
            sio.load_strategy(json.dumps(doc))


@pytest.mark.parametrize(
    "spec", [rot_spec(3, 9), rot_spec(5, 5), rot_spec(2, 8)], ids=lambda s: f"rot-{s.n}-{s.m}"
)
def test_loaded_strategy_shares_one_object_per_distinct_move(spec):
    strategy = synth(spec)
    text = sio.dump_strategy(strategy)
    again = sio.load_strategy(text)
    assert again == strategy
    assert sio.dump_strategy(again) == text
    assert len({id(y) for y in again.moves}) == len(set(again.moves))


def test_strategy_load_accepts_empty_moves():
    strategy = sio.load_strategy(malformed_doc([]))
    assert strategy.moves == ()


def test_verdict_round_trip():
    verdict = Verdict(wins=False, steps_checked=3, witness=Witness(mod_vector(2, [0, 1]), (0, 1, 0)))
    text = sio.dump_verdict(verdict)
    again = sio.load_verdict(text, m=2)
    assert again == verdict
    assert sio.dump_verdict(again) == text


def test_certificate_round_trip():
    cert = build_certificate(rot_spec(6, 2))
    text = sio.dump_certificate(cert)
    again = sio.load_certificate(text)
    assert again == cert
    assert sio.dump_certificate(again) == text


@pytest.mark.parametrize(
    "key,value",
    [
        ("c", [1.0, 0.0]),
        ("c", "10"),
        ("p", 2.0),
        ("q", True),
        ("blocks", [[0, 7]]),
        ("blocks", [[0, -1]]),
        ("blocks", [[0, 1.0]]),
        ("blocks", [0, 1]),
    ],
    ids=[
        "c-floats",
        "c-string",
        "p-float",
        "q-bool",
        "block-beyond-n",
        "block-negative",
        "block-float",
        "blocks-not-arrays",
    ],
)
def test_certificate_load_rejects_malformed(key, value):
    # The certificate for 2 positions mod 3: c = (0 1), blocks [[0, 1]].
    doc = json.loads(sio.dump_certificate(build_certificate(rot_spec(2, 3))))
    assert (doc["c"], doc["blocks"]) == ([1, 0], [[0, 1]])
    doc[key] = value
    with pytest.raises(ValueError):
        sio.load_certificate(json.dumps(doc))


def test_cli_decide_exit_codes(capsys):
    assert run(["decide", "-n", "4", "-m", "2", "--rotations"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solvable"] and doc["p"] == 2 and doc["a"] == 2 and doc["b"] == 1
    assert run(["decide", "-n", "2", "-m", "3", "--rotations"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["solvable"] and doc["reason"] == "mixed-primes"


def test_cli_synth_verify_pipeline(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["synth", "-n", "4", "-m", "2", "--rotations", "-o", str(out)]) == 0
    strategy = sio.load_strategy(out.read_text())
    assert len(strategy) == 15
    assert run(["verify", str(out)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["wins"] and verdict["steps_checked"] == 15 and verdict["witness"] is None


def test_cli_synth_refuses_unsolvable(tmp_path, capsys):
    assert run(["synth", "-n", "2", "-m", "3", "--rotations"]) == 1
    err = capsys.readouterr().err
    assert "refute" in err


def test_cli_verify_losing_strategy_with_witness(tmp_path, capsys):
    spec = rot_spec(2, 2)
    bad = Strategy(spec, (mod_vector(2, [1, 1]),))
    path = tmp_path / "bad.json"
    path.write_text(sio.dump_strategy(bad))
    assert run(["verify", str(path), "--witness"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["wins"]
    assert doc["witness"]["start"] == [0, 1]


def test_cli_verify_backend_and_threads(tmp_path, capsys):
    out = tmp_path / "s.json"
    run(["synth", "-n", "4", "-m", "2", "--rotations", "-o", str(out)])
    assert run(["verify", str(out), "--backend", "python", "--threads", "2"]) == 0
    capsys.readouterr()
    # The CLI proves this win structurally; the same backend and thread count
    # must also reach it densely.
    strategy = sio.load_strategy(out.read_text())
    assert verify_dense(strategy, backend="python", threads=2).wins


def test_cli_refute(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(["refute", "-n", "2", "-m", "3", "--rotations", "-o", str(cert_path),
                "--rounds", "200", "--seed", "7"])
    assert code == 0
    cert = sio.load_certificate(cert_path.read_text())
    assert (cert.p, cert.q) == (2, 3)
    assert "invariant held for 200 rounds" in capsys.readouterr().err
    assert run(["refute", "-n", "4", "-m", "2", "--rotations"]) == 1
    assert "synth" in capsys.readouterr().err


def test_cli_gens_inline_and_file(tmp_path, capsys):
    inline = "[[1,0,2,3]]"
    assert run(["decide", "-n", "4", "-m", "2", "--gens", inline]) == 0
    capsys.readouterr()
    gens_file = tmp_path / "gens.json"
    gens_file.write_text(inline)
    assert run(["decide", "-n", "4", "-m", "2", "--gens", str(gens_file)]) == 0
    capsys.readouterr()


def test_cli_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)]) == 2
    capsys.readouterr()
    assert run(["decide", "-n", "3", "-m", "2", "--gens", "[[0,1]]"]) == 2
    capsys.readouterr()
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_state_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "s.json"
    run(["synth", "-n", "4", "-m", "2", "--rotations", "-o", str(out)])
    assert run(["verify", str(out), "--cap", "4"]) == 2
    capsys.readouterr()


def test_cli_play_scripted_matches_simulate_trace(monkeypatch, capsys):
    spec = rot_spec(2, 2)
    strategy = synth(spec)
    choices = [0, 0, 0]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{c}\n" for c in choices)))
    code = run(["play", "-n", "2", "-m", "2", "--rotations", "--start", "0,1"])
    out = capsys.readouterr().out
    printed = [json.loads(line.split("config: ", 1)[1]) for line in out.splitlines()
               if line.startswith("config: ")]
    trace = simulate_trace(spec, mod_vector(2, [0, 1]), strategy.moves, choices)
    expected = [list(c.entries) for c in trace.configs[: len(printed)]]
    assert printed == expected
    assert (code == 0) == trace.won
    assert "WIN" in out


def test_cli_play_survival(monkeypatch, tmp_path, capsys):
    spec = rot_spec(2, 3)
    strategy = Strategy(spec, (mod_vector(3, [1, 0]),))
    path = tmp_path / "s.json"
    path.write_text(sio.dump_strategy(strategy))
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    code = run(["play", "-n", "2", "-m", "3", "--rotations",
                "--strategy", str(path), "--start", "0,1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SURVIVED" in out


@pytest.mark.parametrize(
    "start, message",
    [("--start=5,7", "[0, 2)"), ("--start=-1,0", "[0, 2)"), ("--start=1,0,1", "wrong length")],
)
def test_cli_play_rejects_bad_start(start, message, monkeypatch, capsys):
    # Entries outside [0, m) are malformed input, not reduced mod m.
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n" * 4))
    assert run(["play", "-n", "2", "-m", "2", "--rotations", start]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "config:" not in captured.out


def test_cli_bench_reports_all_backends(capsys):
    assert run(["bench", "-n", "4", "-m", "2", "--rotations", "--repeat", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {r["backend"] for r in doc["results"]}
    assert "python" in names
    for r in doc["results"]:
        assert r["wins"] is True
        assert r["transitions_per_second"] > 0
        assert r["states"] == 16 and r["generators"] == 4 and r["steps"] == 15
        assert list(r) == [f.name for f in dataclasses.fields(BenchResult)]


def test_cli_requires_exactly_one_generator_source():
    with pytest.raises(SystemExit) as exc:
        run(["decide", "-n", "4", "-m", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["decide", "-n", "4", "-m", "2", "--rotations", "--gens", "[[0,1,2,3]]"])
    assert exc.value.code == 2


NEGATIVE_COUNTS = [
    ["refute", "-n", "6", "-m", "2", "--rotations", "--rounds", "-5"],
    ["refute", "-n", "6", "-m", "2", "--rotations", "--rounds", "many"],
    ["verify", "s.json", "--threads", "0"],
    ["verify", "s.json", "--threads", "-3"],
    ["bench", "-n", "2", "-m", "2", "--rotations", "--threads", "0"],
    ["bench", "-n", "2", "-m", "2", "--rotations", "--repeat", "-1"],
    ["bench", "-n", "2", "-m", "2", "--rotations", "--repeat", "0"],
]


@pytest.mark.parametrize("argv", NEGATIVE_COUNTS, ids=lambda a: "-".join([a[0], *a[-2:]]))
def test_cli_out_of_range_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected an integer >=" in capsys.readouterr().err


def test_cli_zero_refute_rounds_accepted(capsys):
    assert run(["refute", "-n", "6", "-m", "2", "--rotations", "--rounds", "0"]) == 0
    assert "invariant held for 0 rounds" in capsys.readouterr().err


def test_verdict_json_matches_verifier(tmp_path):
    spec = rot_spec(2, 2)
    bad = Strategy(spec, (mod_vector(2, [1, 1]),))
    verdict = verify_strategy(bad, want_witness=True)
    text = sio.dump_verdict(verdict)
    assert sio.load_verdict(text, m=2) == verdict
