"""Spans around calls into spintable's layers, recorded from outside.

The traced run imports the program into the benchmark's own process and
rebinds its public functions to timing wrappers; the program's files are not
touched.  The kernels are timed through ``verify_strategy(backend=...)``,
given a proxy around the active backend, and table work through
``verify_strategy(tables=...)``, given a ``TransitionTables`` subclass.

A span records its name, start, end and the span that caused it.  Spans stay
in memory until the run writes them out.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

KERNEL_SPANS = ("kernels.step", "kernels.step_indirect", "kernels.step_record")

# Computed bytes addressed per gather (an int32 table index and a uint8
# survivor flag), per state written (one uint8 flag), and per state for the
# extra per-state array each kernel variant reads or writes.
_BYTES_PER_GATHER = 4 + 1
_BYTES_PER_STATE = {"kernels.step": 1, "kernels.step_indirect": 1 + 4, "kernels.step_record": 1 + 2}


class Span(NamedTuple):
    """A finished span.  Spans are plain tuples of numbers, strings and a
    dict of counts, so the cyclic garbage collector soon stops tracking
    them and a long trace does not slow collections in the program."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: dict


class Tracer:
    """Collects spans.  A span opened on a worker thread with nothing open
    there is caused by the innermost span open on the creating thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, attrs: dict, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; attrs may be filled in later."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, attrs))

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals}."""
    by_id = {sp.id: sp for sp in spans}
    children = defaultdict(list)
    for sp in spans:
        parent = by_id.get(sp.parent)
        if parent is not None:
            children[parent.id].append((max(sp.start, parent.start), min(sp.end, parent.end)))
    return {sp.id: (sp.end - sp.start) - _covered(children[sp.id]) for sp in spans}


def write_spans(path, spans):
    """One JSON object per line: id, name, start, end, parent id, attrs."""
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(sp._asdict(), separators=(",", ":")) + "\n")


class KernelProxy:
    """Times the three kernel entry points and counts the gathers each call
    does under the backend's contract.

    The NumPy backend reads every generator's predecessor for every state.
    Any other backend follows the compiled contract and stops at the first
    live predecessor, so the proxy counts those reads from the same inputs
    before the call, outside the timed span.
    """

    def __init__(self, tracer: Tracer, backend):
        self._tracer = tracer
        self._backend = backend
        self.NAME = backend.NAME
        self._reads_all = backend.NAME == "python"

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _gathers(self, src, table, rows):
        generators, states = table.shape[0], len(rows) if rows is not None else table.shape[1]
        if self._reads_all:
            return generators * states
        import numpy as np

        live = src[table if rows is None else table[:, rows]] != 0
        tried = np.where(live.any(axis=0), live.argmax(axis=0) + 1, generators)
        return int(tried.sum())

    def _call(self, name, fn, args, gathers, states):
        attrs = {"gathers": gathers, "bytes": gathers * _BYTES_PER_GATHER + states * _BYTES_PER_STATE[name]}
        self._tracer.call(name, attrs, fn, *args)

    def step(self, src, dst, comp, t0, t1):
        gathers = self._gathers(src, comp[:, t0:t1], None)
        self._call("kernels.step", self._backend.step, (src, dst, comp, t0, t1), gathers, t1 - t0)

    def step_indirect(self, src, dst, pinv, ainv, t0, t1):
        gathers = self._gathers(src, pinv, ainv[t0:t1])
        args = (src, dst, pinv, ainv, t0, t1)
        self._call("kernels.step_indirect", self._backend.step_indirect, args, gathers, t1 - t0)

    def step_record(self, src, dst, gens, comp, t0, t1):
        gathers = self._gathers(src, comp[:, t0:t1], None)
        args = (src, dst, gens, comp, t0, t1)
        self._call("kernels.step_record", self._backend.step_record, args, gathers, t1 - t0)


def _array_bytes(obj) -> int:
    """Bytes of the NumPy arrays an object holds directly or in a dict."""
    import numpy as np

    total = 0
    for value in vars(obj).values():
        values = value.values() if isinstance(value, dict) else (value,)
        total += sum(v.nbytes for v in values if isinstance(v, np.ndarray))
    return total


def traced_tables_class(base, tracer: Tracer):
    """A TransitionTables subclass timing construction, the composed-table
    cache and move-table builds.  A composed_cached call that returns a table
    without building a move table is a cache hit."""

    class TracedTables(base):
        def __init__(self, spec):
            tracer.call("verify.tables", {}, super().__init__, spec)

        def composed_cached(self, y, order):
            attrs = {}
            table = tracer.call("verify.composed_cached", attrs, super().composed_cached, y, order)
            attrs["returned"] = table is not None
            return table

        def move_table(self, y):
            return tracer.call("verify.move_table", {}, super().move_table, y)

    return TracedTables


class Instrumentation:
    """Rebinds spintable's public functions to timing wrappers in every
    spintable module that holds them, and undoes it on ``remove``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []
        self.missing = []

    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name == "spintable" or name.startswith("spintable."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        self._undo.append((module, attr, original))

    def wrap(self, module, attr: str, span_name: str, note=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = {}
            result = tracer.call(span_name, attrs, original, *args, **kwargs)
            if note is not None:
                note(attrs, args, result)
            return result

        self._rebind(original, traced)

    def install(self):
        self.missing = []
        # import_module, because the package re-exports names such as
        # ``perm`` that shadow its submodules as attributes.
        cli, sio, perm, refute, solve, verify, kernels = (
            importlib.import_module(f"spintable.{name}")
            for name in ("cli", "io", "perm", "refute", "solve", "verify", "kernels")
        )
        tracer = self.tracer
        self.wrap(cli, "run", "cli.run", note=lambda a, args, _: a.update(command=args[0][0]))
        self.wrap(sio, "load_strategy", "io.load", note=lambda a, _, s: a.update(moves=len(s.moves)))
        self.wrap(sio, "dump_strategy", "io.dump", note=lambda a, args, _: a.update(moves=len(args[0].moves)))
        for attr in ("dump_verdict", "dump_certificate"):
            self.wrap(sio, attr, "io.dump")
        self.wrap(solve, "synth", "solve.synth")
        self.wrap(solve, "decide", "solve.decide")
        self.wrap(perm, "closure", "perm.closure", note=lambda a, _, g: a.update(order=g.order))
        self.wrap(refute, "build_certificate", "refute.build_certificate")
        self.wrap(refute, "adversary_move", "refute.adversary_move")

        json_module = sio.json
        shim = _JsonShim(json_module, tracer)
        sio.json = shim
        self._undo.append((sio, "json", json_module))

        tables_class = traced_tables_class(verify.TransitionTables, tracer)
        original = verify.verify_strategy

        @functools.wraps(original)
        def traced_verify(strategy, *args, **kwargs):
            spec = strategy.spec
            attrs = {
                "states": spec.state_count,
                "generators": len(spec.S),
                "witness": bool(kwargs.get("want_witness", args[0] if args else False)),
            }

            def body():
                backend = kwargs.get("backend")
                if backend is None:
                    backend = kernels.default_backend()
                elif isinstance(backend, str):
                    backend = kernels.get_backend(backend)
                kwargs["backend"] = KernelProxy(tracer, backend)
                if kwargs.get("tables") is None:
                    kwargs["tables"] = tables_class(spec)
                return original(strategy, *args, **kwargs)

            verdict = tracer.call("verify.verify_strategy", attrs, body)
            attrs["rounds"] = verdict.steps_checked
            attrs["tables_bytes"] = _array_bytes(kwargs["tables"])
            return verdict

        self._rebind(original, traced_verify)

    def remove(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class _JsonShim:
    """Stands in for the json module inside spintable.io, timing loads and
    dumps and passing everything else through."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def loads(self, *args, **kwargs):
        return self._tracer.call("io.json", {}, self._module.loads, *args, **kwargs)

    def dumps(self, *args, **kwargs):
        return self._tracer.call("io.json", {}, self._module.dumps, *args, **kwargs)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced cycle (all but cli.import_s).

    Times named ``_s`` are self times, except io.load_s and io.dump_s, which
    include the io.json_s they spend in json.  Rounds, moves, gathers and
    bytes are counts; bytes are computed from array shapes, not measured.
    """
    own = self_times(spans)
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for sp in spans:
        self_s[sp.name] += own[sp.id]
        total_s[sp.name] += sp.end - sp.start
        calls[sp.name] += 1
    verifies = [sp for sp in spans if sp.name == "verify.verify_strategy"]
    kernel_calls = [sp for sp in spans if sp.name in KERNEL_SPANS]
    composed = [sp for sp in spans if sp.name == "verify.composed_cached"]
    built = {sp.parent for sp in spans if sp.name == "verify.move_table"}
    hits = sum(1 for sp in composed if sp.attrs["returned"] and sp.id not in built)
    kernel_s = sum(self_s[name] for name in KERNEL_SPANS)
    gathers = sum(sp.attrs["gathers"] for sp in kernel_calls)
    orders = [sp.attrs["order"] for sp in spans if sp.name == "perm.closure"]
    witness_logs = [v.attrs["rounds"] * v.attrs["states"] * 2 for v in verifies if v.attrs["witness"]]
    return {
        "io.load_s": total_s["io.load"],
        "io.json_s": total_s["io.json"],
        "io.dump_s": total_s["io.dump"],
        "io.moves": sum(sp.attrs.get("moves", 0) for sp in spans if sp.name in ("io.load", "io.dump")),
        "solve.synth_s": self_s["solve.synth"],
        "solve.decide_s": self_s["solve.decide"],
        "perm.closure_s": self_s["perm.closure"],
        "perm.group_order": max(orders, default=0),
        "refute.certificate_s": self_s["refute.build_certificate"],
        "refute.oracle_rounds_per_s": _ratio(calls["refute.adversary_move"], total_s["refute.adversary_move"]),
        "verify.self_s": self_s["verify.verify_strategy"],
        "verify.tables_s": self_s["verify.tables"] + self_s["verify.composed_cached"],
        "verify.tables_mb": max((v.attrs["tables_bytes"] for v in verifies), default=0) / 1e6,
        "verify.move_table_s": self_s["verify.move_table"],
        "verify.move_table_calls": calls["verify.move_table"],
        "verify.cache_hit_ratio": _ratio(hits, len(composed)),
        "verify.witness_log_mb": max(witness_logs, default=0) / 1e6,
        "verify.rounds": sum(v.attrs["rounds"] for v in verifies),
        "kernels.step_s": self_s["kernels.step"],
        "kernels.step_indirect_s": self_s["kernels.step_indirect"],
        "kernels.step_record_s": self_s["kernels.step_record"],
        "kernels.gathers": gathers,
        "kernels.gathers_nominal": sum(
            v.attrs["rounds"] * v.attrs["states"] * v.attrs["generators"] for v in verifies
        ),
        "kernels.gathers_per_s": _ratio(gathers, kernel_s),
        "kernels.bytes_computed": sum(sp.attrs["bytes"] for sp in kernel_calls),
    }


def shares(spans) -> dict:
    """The acceptance shares.  Kernel self time (summed over threads) and
    kernel wall coverage, each within verify_strategy spans; and load plus
    table time within the CLI spans of verify ops."""
    by_id = {sp.id: sp for sp in spans}
    kernel_cover = defaultdict(list)
    for sp in spans:
        if sp.name in KERNEL_SPANS:
            kernel_cover[sp.parent].append((sp.start, sp.end))
    verifies = [sp for sp in spans if sp.name == "verify.verify_strategy"]
    verify_s = sum(v.end - v.start for v in verifies)
    kernel_wall_s = sum(_covered(kernel_cover[v.id]) for v in verifies)
    verify_ops = {sp.id for sp in spans if sp.name == "cli.run" and sp.attrs["command"] == "verify"}

    def under_verify_op(sp):
        while sp.parent in by_id:
            sp = by_id[sp.parent]
        return sp.id in verify_ops

    op_s = sum(sp.end - sp.start for sp in spans if sp.id in verify_ops)
    own = self_times(spans)
    kernel_self_s = sum(own[sp.id] for sp in spans if sp.name in KERNEL_SPANS)
    load_tables_s = sum(
        (sp.end - sp.start) if sp.name == "io.load" else own[sp.id]
        for sp in spans
        if sp.name in ("io.load", "verify.tables", "verify.composed_cached") and under_verify_op(sp)
    )
    return {
        "kernels_self_share_of_verify": _ratio(kernel_self_s, verify_s),
        "kernels_wall_share_of_verify": _ratio(kernel_wall_s, verify_s),
        "load_and_tables_share_of_verify_op": _ratio(load_tables_s, op_s),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0
