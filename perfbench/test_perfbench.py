"""Tests of the benchmark itself: seeded inputs, output checks, gather
counting and a tiny-size smoke run.  Run with ``python3 -m pytest perfbench``.
"""

import itertools
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checker
import inputs
import run
import tracing
import workloads

TINY = {
    "win-dense": dict(dense=((3, 3), (2, 4))),
    "lose-random": dict(random_specs=((3, 2), (2, 3)), witness_specs=((2, 2), (3, 3))),
    "large-doc": dict(big=(3, 3), lift=(2, 4)),
    "group-refute": dict(sym_n=4, rotation_specs=((6, 2),), rounds=50),
}


@pytest.fixture(scope="module")
def env():
    return run.child_env()


def tiny_ops(name, work, seed, env):
    runner = run.Runner(env, work, time.perf_counter() + 120)
    ctx = workloads.Inputs(work, random.Random(seed), runner.synth)
    return runner, workloads.WORKLOADS[name](ctx, **TINY[name])


def written(work):
    return {p.name: p.read_bytes() for p in sorted(work.glob("*.json")) if not p.name.startswith("prep-")}


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_depend_only_on_the_seed(name, tmp_path, env):
    runs = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / label
        work.mkdir()
        _, ops = tiny_ops(name, work, seed, env)
        runs[label] = (written(work), [op.argv[:1] + op.argv[2:] for op in ops])
    assert runs["a"][0] and runs["a"][0] == runs["b"][0]
    assert runs["a"][0] != runs["c"][0] or runs["a"][1] != runs["c"][1]


def test_relabeling_keeps_a_rotation_group():
    sigma = inputs.relabeling(6, random.Random(1))
    gens = [inputs.relabel_perm(g, sigma) for g in inputs.rotations(6)]
    assert gens[0] == list(range(6))
    assert all(sorted(g) == list(range(6)) for g in gens)
    doc = inputs.relabel_doc({"n": 6, "m": 2, "generators": [list(range(6))], "moves": [[1, 0, 0, 0, 0, 0]]}, sigma)
    assert list(doc["moves"][0]) == [1 if i == sigma[0] else 0 for i in range(6)]


def test_replay_accepts_a_surviving_line_and_rejects_one_reaching_zero():
    doc = {"n": 2, "m": 2, "generators": [[0, 1], [1, 0]], "moves": [[1, 1]]}
    checker.replay(doc, [1, 0], [1])
    with pytest.raises(checker.Mismatch):
        checker.replay(doc, [1, 1], [0])
    with pytest.raises(checker.Mismatch):
        checker.replay(doc, [1, 0], [1, 0])


def test_checker_flags_flipped_verdicts_and_false_witnesses(tmp_path, env):
    runner = run.Runner(env, tmp_path, time.perf_counter() + 60)
    doc = inputs.truncated(runner.synth(4, 2, tmp_path / "w.json"))
    path = inputs.write_doc(tmp_path / "t.json", doc)
    rc, _, _, out = runner.spawn(["verify", "--witness", str(path)])
    verdict = json.loads(out)
    checker.check_witness(rc, verdict, doc)

    with pytest.raises(checker.Mismatch):
        checker.check_witness(rc, dict(verdict, wins=True), doc)
    with pytest.raises(checker.Mismatch):
        checker.check_win(0, dict(verdict, wins=False, steps_checked=15), 4, 2)
    start = verdict["witness"]["start"]
    other = next(x for x in map(list, itertools.product((0, 1), repeat=4)) if any(x) and x != start)
    # Fixed adversary choices make the game a bijection, so any other start
    # ends elsewhere than the single survivor and must have reached zero.
    moved = dict(verdict, witness=dict(verdict["witness"], start=other))
    with pytest.raises(checker.Mismatch):
        checker.check_witness(rc, moved, doc)


def test_gather_counts_follow_each_backend_contract():
    rng = np.random.default_rng(0)
    src = (rng.random(50) < 0.3).astype(np.uint8)
    comp = rng.integers(0, 50, size=(4, 50), dtype=np.int32)

    class Backend:
        def __init__(self, name):
            self.NAME = name

    tracer = tracing.Tracer()
    assert tracing.KernelProxy(tracer, Backend("python"))._gathers(src, comp, None) == 200
    first_live = sum(
        next((g + 1 for g in range(4) if src[comp[g, t]]), 4) for t in range(50)
    )
    assert tracing.KernelProxy(tracer, Backend("compiled"))._gathers(src, comp, None) == first_live
    rows = rng.integers(0, 50, size=20)
    expected = sum(next((g + 1 for g in range(4) if src[comp[g, u]]), 4) for u in rows)
    assert tracing.KernelProxy(tracer, Backend("compiled"))._gathers(src, comp, rows) == expected


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(0, "p", 0.0, 10.0, None, {})
    children = [tracing.Span(i, "c", lo, hi, 0, {}) for i, (lo, hi) in enumerate(((1.0, 4.0), (3.0, 5.0), (8.0, 12.0)), 1)]
    own = tracing.self_times([parent, *children])
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(3.0)


def test_spans_nest_across_worker_threads():
    tracer = tracing.Tracer()

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: tracer.call("inner", {}, time.sleep, 0.01), range(2)))

    tracer.call("outer", {}, outer)
    spans = {sp.name: sp for sp in tracer.take()}
    assert spans["inner"].parent == spans["outer"].id and spans["outer"].parent is None


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name, tmp_path, env):
    runner, ops = tiny_ops(name, tmp_path, 1, env)
    metrics, results, _ = run.measure(runner, ops, 0, runner.deadline)
    assert all(r.ok for r in results), [r.reason for r in results if not r.ok]
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0
    assert metrics["fail_frac"] == 0

    metrics, results, extra = run.trace(env, ops, 0, runner.deadline, tmp_path / "spans.jsonl")
    assert all(r.ok for r in results), [r.reason for r in results if not r.ok]
    assert set(metrics) == set(run.declared("per_layer"))
    assert metrics["cli.import_s"] > 0
    assert not extra["uninstrumented"]
    if name == "group-refute":
        assert metrics["perm.group_order"] == 24 and metrics["refute.oracle_rounds_per_s"] > 0
        assert metrics["kernels.gathers"] == 0
    else:
        assert 0 < metrics["kernels.gathers"] <= metrics["kernels.gathers_nominal"]
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
