"""Canonical JSON interchange for strategies, verdicts, and certificates.

Serialization is byte-stable: fixed key order, compact separators, a single
trailing newline.  Strategy files may omit the identity from the generator
list; it is re-added on load because the game requires it.  Strategy moves
are validated and deduplicated as one integer array, so loading a document
of a million moves costs a few array passes beyond json itself; writing one
encodes each distinct move once.
"""

import json
from itertools import chain
from typing import Optional

import numpy as np

from .game import GameSpec, Strategy
from .linalg import ModVector
from .perm import GeneratorSet, Permutation, generator_set
from .refute import UnsolvabilityCertificate
from .verify import Verdict, Witness

_SEPARATORS = (",", ":")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=_SEPARATORS) + "\n"


def dump_strategy(strategy: Strategy) -> str:
    """The bytes _dumps gives for the document, with the moves written by
    _moves_text and spliced in after the generators, keeping key order."""
    spec = strategy.spec
    head = {"n": spec.n, "m": spec.m, "generators": [list(g.mapping) for g in spec.S.perms]}
    parts = [json.dumps(head, separators=_SEPARATORS)[:-1], ',"moves":', _moves_text(strategy.moves)]
    if strategy.metadata is not None:
        parts += [',"metadata":', json.dumps(strategy.metadata, separators=_SEPARATORS)]
    parts.append("}\n")
    return "".join(parts)


def _moves_text(moves) -> str:
    """The compact JSON of [list(y.entries) for y in moves].  Each distinct
    move is encoded once and the text is joined from those rows, so a
    million-move strategy over a small vocabulary costs a few list passes."""
    if not moves:
        return "[]"
    vocab: dict[tuple, int] = {}
    index = [vocab.setdefault(y.entries, len(vocab)) for y in moves]
    # Rows hold only integers, so "],[" appears only between rows.
    rows = json.dumps(list(vocab), separators=_SEPARATORS)[2:-2].split("],[")
    return "[[" + "],[".join(map(rows.__getitem__, index)) + "]]"


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _generators(raw, n: int) -> GeneratorSet:
    """A nonempty list of permutation arrays of exact integers (booleans and
    floats excluded), with the identity prepended when missing."""
    _require(isinstance(raw, list) and raw, "generators must be a nonempty array of arrays")
    _require(set(map(type, raw)) == {list}, "every generator must be an array")
    entries = set(map(type, chain.from_iterable(raw)))
    _require(entries <= {int}, "generator entries must be integers")
    return generator_set(n, raw).with_identity()


def _moves_array(raw, n: int, m: int) -> np.ndarray:
    """The moves as an (L, n) int64 array: a list of length-n lists of
    integers (booleans and floats excluded) in [0, m)."""
    _require(isinstance(raw, list), "moves must be an array")
    if not raw:
        return np.empty((0, n), dtype=np.int64)
    _require(set(map(type, raw)) == {list}, "every move must be an array")
    _require(set(map(len, raw)) == {n}, f"every move must have exactly {n} entries")
    _require(set(map(type, chain.from_iterable(raw))) == {int}, "move entries must be integers")
    try:
        flat = np.fromiter(chain.from_iterable(raw), dtype=np.int64, count=len(raw) * n)
    except OverflowError:
        raise ValueError(f"move entries must lie in [0, {m})") from None
    _require(flat.min() >= 0 and flat.max() < m, f"move entries must lie in [0, {m})")
    return flat.reshape(len(raw), n)


def _shared_moves(arr: np.ndarray, m: int) -> tuple[ModVector, ...]:
    """One ModVector per distinct row, shared by every move that plays it."""
    n = arr.shape[1]
    if m**n >= 1 << 63:
        # Row codes would overflow int64.  Such state spaces are far beyond
        # any verification cap, so a per-row dictionary is fast enough.
        shared: dict[tuple, ModVector] = {}
        for row in map(tuple, arr.tolist()):
            if row not in shared:
                shared[row] = ModVector(m, row)
        return tuple(shared[row] for row in map(tuple, arr.tolist()))
    codes = arr @ (m ** np.arange(n, dtype=np.int64))
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    distinct = [ModVector(m, tuple(row)) for row in arr[first].tolist()]
    return tuple(map(distinct.__getitem__, inverse.tolist()))


def load_strategy(text: str) -> Strategy:
    doc = json.loads(text)
    _require(isinstance(doc, dict), "strategy document must be an object")
    for key in ("n", "m", "generators", "moves"):
        _require(key in doc, f"strategy document missing {key!r}")
    n, m = doc["n"], doc["m"]
    _require(type(n) is int and n >= 1, "n must be a positive integer")
    _require(type(m) is int and m >= 1, "m must be a positive integer")
    spec = GameSpec(n, m, _generators(doc["generators"], n))
    moves = _shared_moves(_moves_array(doc["moves"], n, m), m)
    return Strategy(spec, moves, metadata=doc.get("metadata"))


def dump_verdict(verdict: Verdict) -> str:
    witness = None
    if verdict.witness is not None:
        witness = {
            "start": list(verdict.witness.start.entries),
            "perms": list(verdict.witness.perms),
        }
    return _dumps(
        {"wins": verdict.wins, "steps_checked": verdict.steps_checked, "witness": witness}
    )


def load_verdict(text: str, m: Optional[int] = None) -> Verdict:
    """Parse a verdict document; m is required only to decode a witness."""
    doc = json.loads(text)
    witness: Optional[Witness] = None
    raw = doc.get("witness")
    if raw is not None:
        _require(m is not None, "decoding a witness requires the game modulus")
        witness = Witness(
            start=ModVector(m, tuple(raw["start"])), perms=tuple(raw["perms"])
        )
    return Verdict(wins=doc["wins"], steps_checked=doc["steps_checked"], witness=witness)


def dump_certificate(cert: UnsolvabilityCertificate) -> str:
    return _dumps(
        {
            "p": cert.p,
            "q": cert.q,
            "c": list(cert.c.mapping),
            "blocks": [list(b) for b in cert.blocks],
        }
    )


def load_certificate(text: str) -> UnsolvabilityCertificate:
    """Parse a certificate: p and q exact integers, c an array of exact
    integers, and blocks arrays of positions in [0, len(c))."""
    doc = json.loads(text)
    _require(isinstance(doc, dict), "certificate document must be an object")
    for key in ("p", "q", "c", "blocks"):
        _require(key in doc, f"certificate document missing {key!r}")
    p, q, c, blocks = doc["p"], doc["q"], doc["c"], doc["blocks"]
    _require(type(p) is int and type(q) is int, "p and q must be integers")
    _require(isinstance(c, list) and set(map(type, c)) <= {int}, "c must be an array of integers")
    _require(
        isinstance(blocks, list) and set(map(type, blocks)) <= {list},
        "blocks must be an array of arrays",
    )
    entries = list(chain.from_iterable(blocks))
    _require(set(map(type, entries)) <= {int}, "block entries must be integers")
    _require(all(0 <= i < len(c) for i in entries), f"block entries must lie in [0, {len(c)})")
    return UnsolvabilityCertificate(
        p=p, q=q, c=Permutation(tuple(c)), blocks=tuple(map(tuple, blocks))
    )


def generators_from_json(n: int, text: str) -> GeneratorSet:
    """Parse an inline JSON array of permutation arrays (identity implied)."""
    return _generators(json.loads(text), n)
