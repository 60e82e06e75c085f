"""Closed-loop CLI benchmark of spintable.

Run from the root of a checkout, one workload at a time, or all of them:

    for w in win-dense lose-random large-doc group-refute; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

The benchmark builds the checkout (``setup.py build_ext --inplace``), makes
the workload's inputs from ``--seed``, then runs the workload's ops as a
closed loop from this one process: each op is a ``python -m spintable``
subprocess started only after the previous one exits.  Whole cycles of ops
run for about ``--seconds`` (at least one cycle).  Every
output is checked.  Each op's wall is its median over the cycles, and the
end-to-end times are sums of those medians.

With ``--trace 1`` the same inputs run in this process through
``spintable.cli.run``, alternating an untraced and a traced cycle, and the
per-layer metrics come from spans recorded around calls into each module
(see tracing.py).  The traced minus the untraced cycle wall is the tracing
overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with the metrics BENCHMARK.json names for the chosen mode.  A full
record, with the machine description, goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import inputs
import tracing
from workloads import WORKLOADS, Inputs, Op, setup_op

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 8
IMPORT_SAMPLES = 5
# Every op of a run must finish this many seconds after set-up; a run is
# expected to exit within 180 s.
RUN_BUDGET_S = 160.0

# Units of the end-to-end metrics that are printed and recorded but not
# gated; BENCHMARK.json holds the names and units of the gated ones and of
# every per-layer metric.
REPORTED_UNITS = {
    "synth_s": "s",
    "verify_s": "s",
    "decide_s": "s",
    "refute_s": "s",
    "verify_rate": "1/s",
    "par_speedup": "ratio",
    "fail_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class OpResult:
    op: Op
    wall: float
    rss_mb: float
    ok: bool
    reason: str = ""
    state_rounds: int = 0

    def record(self) -> dict:
        return {
            "kind": self.op.kind,
            "argv": [Path(a).name if "/" in a else a for a in self.op.argv],
            "wall_s": self.wall,
            "rss_mb": self.rss_mb,
            "ok": self.ok,
            "reason": self.reason,
        }


def _checked(op: Op, rc: int, out: str):
    """(ok, reason, state_rounds) of one finished op."""
    try:
        doc = op.check(rc, out)
    except (checker.Mismatch, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return False, f"{type(exc).__name__}: {exc}", 0
    rounds = doc["steps_checked"] * op.states if op.kind == "verify" else 0
    return True, "", rounds


class Runner:
    """Runs ops as subprocesses, one at a time, each reaped with wait4 so
    that its own peak RSS is known."""

    def __init__(self, env: dict, work: Path, deadline: float):
        self.env = env
        self.work = work
        self.deadline = deadline

    def spawn(self, argv: list[str]):
        """(exit code, wall seconds, peak RSS in MB, stdout) of one
        ``python -m spintable`` run, killed at the deadline."""
        out_path, err_path = self.work / "op.out", self.work / "op.err"
        limit = self.deadline - time.perf_counter()
        if limit <= 0:
            raise _Timeout()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "spintable", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                status = None
            finally:
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, out_path.read_text()

    def run(self, op: Op) -> OpResult:
        try:
            rc, wall, rss_mb, out = self.spawn(op.argv)
        except _Timeout:
            return OpResult(op, 0.0, 0.0, False, "run budget exhausted before the op started")
        ok, reason, rounds = _checked(op, rc, out)
        return OpResult(op, wall, rss_mb, ok, reason, rounds)

    def synth(self, n: int, m: int, path: Path) -> dict:
        """A winner written by the program itself, for preparing inputs."""
        rc, _, _, _ = self.spawn(["synth", "-n", str(n), "-m", str(m), "--rotations", "-o", str(path)])
        doc = inputs.read_doc(path) if rc == 0 else None
        try:
            checker.check_strategy(rc, doc, n, m)
        except (checker.Mismatch, TypeError) as exc:
            raise BenchError(f"preparing rot-{n}-{m}: {exc}") from exc
        return doc


class InProcess:
    """Runs ops through spintable.cli.run inside this process."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        self.cli = importlib.import_module("spintable.cli")
        _require_checkout_package(self.cli.__file__)
        self.clear_caches = importlib.import_module("spintable.perm").closure.cache_clear

    def run(self, op: Op) -> OpResult:
        # Each op gets the cold caches a fresh process would have.
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(op.argv)
        except Exception as exc:  # a crash inside the program fails this op only
            return OpResult(op, time.perf_counter() - start, 0.0, False, f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        ok, reason, rounds = _checked(op, rc, out.getvalue())
        return OpResult(op, wall, 0.0, ok, reason, rounds)


def _require_checkout_package(path: str):
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"spintable imported from {path}, not from this checkout")


def loop_metrics(cycles: list[list[OpResult]]) -> dict:
    """End-to-end metrics from the median wall of each op over the cycles
    (None where the workload has no such op)."""
    ops = [r.op for r in cycles[0]]
    wall = [statistics.median(c[i].wall for c in cycles) for i in range(len(ops))]
    rounds = [max(c[i].state_rounds for c in cycles) for i in range(len(ops))]

    def total(keep, values=wall):
        return sum(v for op, v in zip(ops, values) if keep(op))

    out = {"wall_s": sum(wall)}
    for kind in ("synth", "verify", "decide", "refute"):
        out[f"{kind}_s"] = total(lambda op: op.kind == kind and op.role != "par") or None
    verify_s = out["verify_s"]
    out["verify_rate"] = total(lambda op: op.role != "par", rounds) / verify_s if verify_s else None
    par = total(lambda op: op.role == "par")
    out["par_speedup"] = total(lambda op: op.role == "seq") / par if par else None
    return out


def medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def closed_loop(runner, ops: list[Op], seconds: float, deadline: float):
    """Whole cycles of ops, at least one, for about ``seconds``: another
    cycle starts while half a typical cycle still fits."""
    cycles, walls = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append([runner.run(op) for op in ops])
        walls.append(time.perf_counter() - began)
        now = time.perf_counter()
        typical = statistics.median(walls)
        if now - start + typical / 2 > seconds or now + typical > deadline:
            return cycles


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def build(env: dict):
    """Build the checkout in place, as a user installing from source would."""
    if not (ROOT / "setup.py").is_file():
        return
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", ".bench_build/setup"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stderr[-2000:]}")


def _command_output(cmd: list[str], env=None) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def machine(env: dict) -> dict:
    """What the result depends on besides the code: backend, versions,
    processors and caches."""
    probe = (
        "import json, platform, numpy, spintable\n"
        "from spintable.kernels import default_backend_name\n"
        "print(json.dumps({'backend': default_backend_name(), 'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'package': spintable.__file__}))"
    )
    text = _command_output([sys.executable, "-c", probe], env)
    if not text:
        raise BenchError("spintable does not import from this checkout")
    info = json.loads(text)
    _require_checkout_package(info.pop("package"))
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    info["git_sha"] = _command_output(["git", "rev-parse", "HEAD"], git_env) or "unknown"
    info["nproc"] = len(os.sched_getaffinity(0))
    for key, name in (("l2_cache_bytes", "LEVEL2_CACHE_SIZE"), ("l3_cache_bytes", "LEVEL3_CACHE_SIZE")):
        value = _command_output(["getconf", name])
        info[key] = int(value) if value.isdigit() else None
    return info


def import_seconds(env: dict) -> float:
    """Median wall of ``import spintable.cli`` in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import spintable.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        text = _command_output([sys.executable, "-c", probe], env)
        if not text:
            raise BenchError("import spintable.cli failed")
        samples.append(float(text))
    return statistics.median(samples)


def measure(runner: Runner, ops: list[Op], seconds: float, deadline: float):
    # Half the set-up samples open the run and half close it, so that their
    # median spans the run rather than one moment of it.
    setup = [runner.run(setup_op()) for _ in range(SETUP_SAMPLES // 2)]
    cycles = closed_loop(runner, ops, seconds, deadline)
    setup += [runner.run(setup_op()) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    metrics = loop_metrics(cycles)
    metrics["setup_s"] = statistics.median(r.wall for r in setup)
    everything = setup + [r for c in cycles for r in c]
    metrics["peak_rss_mb"] = max(r.rss_mb for r in everything)
    failed = sum(not r.ok for r in everything)
    metrics["fail_frac"] = failed / len(everything)
    return metrics, everything, {"cycles": [[r.record() for r in c] for c in cycles],
                                 "setup": [r.record() for r in setup]}


def trace(env: dict, ops: list[Op], seconds: float, deadline: float, spans_path: Path):
    import_s = import_seconds(env)
    runner = InProcess()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    plain, traced, everything, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        # Alternate which side runs first.  The first cycle in a process pays
        # for the page faults that later cycles reuse, as every CLI process
        # does, so the traced cycle goes first: its layer times include them.
        order = ((traced, True), (plain, False))
        for walls, on in order if len(plain) % 2 == 0 else reversed(order):
            if on:
                instrumentation.install()
            began = time.perf_counter()
            try:
                results = [runner.run(op) for op in ops]
            finally:
                instrumentation.remove()
            walls.append(time.perf_counter() - began)
            everything += results
            if on:
                spans.append(tracer.take())
        now = time.perf_counter()
        typical = statistics.median(plain) + statistics.median(traced)
        if now - start + typical > seconds or now + typical > deadline:
            break
    metrics = medians([tracing.layer_metrics(s) for s in spans])
    metrics["cli.import_s"] = import_s
    tracing.write_spans(spans_path, [sp for cycle in spans for sp in cycle])
    extra = {
        "tracing_overhead_s": statistics.median(traced) - statistics.median(plain),
        "untraced_cycle_s": plain,
        "traced_cycle_s": traced,
        "shares": medians([tracing.shares(s) for s in spans]),
        "uninstrumented": instrumentation.missing,
        "ops": [r.record() for r in everything],
    }
    return metrics, everything, extra


def declared(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _show(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spintable" / "__init__.py").is_file():
        raise BenchError(f"no spintable sources under {ROOT / 'src'}")
    env = child_env()
    build(env)
    info = machine(env)
    base = ROOT / ".perfbench"
    work = base / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (base / "results").mkdir(parents=True, exist_ok=True)
    stem = base / "results" / f"{args.workload}-seed{args.seed}"

    deadline = time.perf_counter() + RUN_BUDGET_S
    runner = Runner(env, work, deadline)
    ctx = Inputs(work, random.Random(args.seed), runner.synth)
    ops = WORKLOADS[args.workload](ctx)

    if args.trace:
        metrics, results, extra = trace(env, ops, args.seconds, deadline, Path(f"{stem}.spans.jsonl"))
        wanted = declared("per_layer")
        units = wanted
    else:
        metrics, results, extra = measure(runner, ops, args.seconds, deadline)
        wanted = declared("end_to_end")
        units = {**wanted, **REPORTED_UNITS}
    failed = sum(not r.ok for r in results)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **info, "attempted": len(results), "failed": failed, "metrics": metrics, **extra}
    if args.trace:
        tables, l3 = metrics["verify.tables_mb"] * 1e6, info["l3_cache_bytes"]
        fit = "of unknown size" if l3 is None else ("which holds them" if tables <= l3 else "which they exceed")
        record["bytes_note"] = (
            "kernels.bytes_computed is computed from array shapes, not measured memory traffic; "
            f"the largest verify tables here take {tables / 1e6:.3g} MB against the L3 cache, {fit}."
        )
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  backend {info['backend']}  "
          f"ops {len(results)}  failed {failed}  nproc {info['nproc']}")
    for r in results:
        if not r.ok:
            print(f"FAILED {r.op.kind} {' '.join(r.op.argv)}: {r.reason}")
    for name, unit in units.items():
        print(f"{name:28s} {_show(metrics.get(name)):>14s} {unit}")
    if args.trace:
        print(f"{'tracing_overhead_s':28s} {_show(extra['tracing_overhead_s']):>14s} s")
        for name, value in extra["shares"].items():
            print(f"{name:28s} {_show(value):>14s} ratio")

    missing = [name for name in wanted if metrics.get(name) is None]
    if missing:
        raise BenchError(f"metrics not measured on {args.workload}: {', '.join(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
