"""In-process tracing of the mml layers, for the benchmark's traced run.

The tracer wraps public functions of each ``mml`` module from outside, at the
names their callers resolve (``identity_engine.enumerate_up_to``,
``torus_curves.compose``, ...), and restores the originals on ``uninstall``.
An untraced run never installs it, so it executes unmodified code.

Two kinds of wrapper exist:

* spans, kept in memory as ``[op, name, parent, start, end, n]`` rows, for the
  layer boundaries whose time is reported (``n`` is a size the span measured:
  curves returned, word letters, compose factors, bytes written);
* counters, for calls too frequent or too small to time one by one (trace memo
  lookups, ``DualMatrix2`` construction, dual-number arithmetic).

Self time is computed after the run, from the stored spans, as a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from collections import Counter, defaultdict

from mml import cli, dualnum, identity_engine, representation, sl2grp, torus_curves

# (span name, size of the work it did, [(owner, attribute), ...]).  Every
# owner/attribute pair a caller resolves is wrapped, so a function imported by
# name into another module is seen from every call site.
_SPANS = [
    ("cli.main", None, [(cli, "main")]),
    ("representation.build_rep", None, [(representation, "build_rep")]),
    ("representation.attach_deformation", None, [(representation, "attach_deformation")]),
    ("representation.random_tangent", None, [(representation, "random_tangent")]),
    ("representation.validate_fuchsian", None, [(representation, "validate_fuchsian")]),
    ("identity_engine.mcshane_sum", None, [(identity_engine, "mcshane_sum")]),
    ("identity_engine.margulis_residual", None, [(identity_engine, "margulis_residual")]),
    ("identity_engine.choose_truncation", None, [(identity_engine, "choose_truncation")]),
    ("identity_engine.tail_bound_identity", None, [(identity_engine, "tail_bound_identity")]),
    ("identity_engine.tail_bound_derivative", None,
     [(identity_engine, "tail_bound_derivative")]),
    ("torus_curves.enumerate_up_to", lambda args, res: len(res),
     [(torus_curves, "enumerate_up_to"), (identity_engine, "enumerate_up_to")]),
    ("torus_curves.bin_curves", None,
     [(torus_curves, "bin_curves"), (identity_engine, "bin_curves")]),
    ("torus_curves.fit_bin_constant", None,
     [(torus_curves, "fit_bin_constant"), (identity_engine, "fit_bin_constant")]),
    ("torus_curves.make_tables", None,
     [(torus_curves, "make_tables"), (identity_engine, "make_tables")]),
    ("torus_curves.TraceTable.__init__", None, [(torus_curves.TraceTable, "__init__")]),
    ("torus_curves.word_matrix", lambda args, res: len(args[1]),
     [(torus_curves.TraceTable, "word_matrix")]),
    ("torus_curves.export_census", lambda args, res: os.path.getsize(args[1]),
     [(torus_curves, "export_census")]),
    ("sl2grp.compose", lambda args, res: len(args),
     [(sl2grp, "compose"), (torus_curves, "compose"), (representation, "compose")]),
]

# (counter name, [(owner, attribute), ...]).
_COUNTERS = [
    ("torus_curves.TraceTable.curve", [(torus_curves.TraceTable, "curve")]),
    ("sl2grp.DualMatrix2.constructed", [(sl2grp.DualMatrix2, "__post_init__")]),
    ("dualnum.DualScalar.ops",
     [(dualnum.DualScalar, "__mul__"), (dualnum.DualScalar, "__sub__")]),
]

OP, NAME, PARENT, START, END, SIZE = range(6)


class Tracer:
    """Records spans and counts for ops run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, size, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            row = [self.op, name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(row)
            try:
                res = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if size is not None:
                row[SIZE] = size(args, res)
            return res

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _trace_lookup(self, fn):
        def trace(table, p, q):
            if (p, q) not in table._memo:
                self.counts[self.op]["torus_curves.trace.new_nodes"] += 1
            return fn(table, p, q)

        return trace

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, size, sites in _SPANS:
            for owner, attr in sites:
                self._patch(owner, attr, functools.partial(self._span, name, size))
        for name, sites in _COUNTERS:
            for owner, attr in sites:
                self._patch(owner, attr, functools.partial(self._counter, name))
        self._patch(torus_curves.TraceTable, "trace", self._trace_lookup)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path) -> None:
        """Write every span as CSV; times are microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["op", "name", "parent", "start_us", "end_us", "size"])
            for op, name, parent, start, end, size in self.spans:
                w.writerow([op, name, parent, f"{(start - t0) * 1e6:.3f}",
                            f"{(end - t0) * 1e6:.3f}", size])

    def final_curves(self, ops=None) -> int:
        """Curves in the final reports: the last growth step of each
        ``choose_truncation``, plus every enumeration outside one (census)."""
        spans = self.spans
        last_step: dict[int, int] = {}
        total = 0
        for i, s in enumerate(spans):
            if s[NAME] != "torus_curves.enumerate_up_to" or (ops is not None and s[OP] not in ops):
                continue
            parent = s[PARENT]
            if parent >= 0 and spans[parent][NAME] == "identity_engine.choose_truncation":
                last_step[parent] = i
            else:
                total += s[SIZE]
        return total + sum(spans[i][SIZE] for i in last_step.values())


# Layer of each span name, for per-layer self time.
def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, scale: dict[int, float]) -> dict[str, tuple[float, str]]:
    """Per-op means of every per-layer metric over the traced ops ``scale`` names.

    ``scale[op]`` multiplies the span times of that op (1.0 for wall time).
    """
    ops = list(scale)
    n_ops = len(ops)
    spans = tracer.spans
    mine = [i for i, s in enumerate(spans) if s[OP] in scale]
    dur = {i: (spans[i][END] - spans[i][START]) * scale[spans[i][OP]] for i in mine}
    child_time: dict[int, float] = defaultdict(float)
    for i in mine:
        if spans[i][PARENT] >= 0:
            child_time[spans[i][PARENT]] += dur[i]

    def inside(s, name):
        while s[PARENT] >= 0:
            s = spans[s[PARENT]]
            if s[NAME] == name:
                return True
        return False

    total = defaultdict(float)   # inclusive seconds per span name
    self_t = defaultdict(float)  # self seconds per span name
    calls = Counter()
    size = Counter()
    growth_steps = 0
    vf_tables = 0
    for i in mine:
        s = spans[i]
        name = s[NAME]
        total[name] += dur[i]
        self_t[name] += dur[i] - child_time[i]
        calls[name] += 1
        size[name] += s[SIZE]
        if name == "torus_curves.enumerate_up_to" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "identity_engine.choose_truncation":
            growth_steps += 1
        if name == "torus_curves.TraceTable.__init__" \
                and inside(s, "representation.validate_fuchsian"):
            vf_tables += 1
    counts = Counter()
    for op in ops:
        counts.update(tracer.counts.get(op, Counter()))

    layer_self = defaultdict(float)
    for name, t in self_t.items():
        layer_self[_layer(name)] += t
    final = tracer.final_curves(scale)
    tails = ("identity_engine.tail_bound_identity", "identity_engine.tail_bound_derivative")
    engine_self = sum(t for name, t in self_t.items()
                      if _layer(name) == "identity_engine" and name not in tails)
    nodes = counts["torus_curves.TraceTable.curve"]
    curves = size["torus_curves.enumerate_up_to"]

    def ms(seconds):
        return (seconds * 1e3 / n_ops, "ms")

    def per_op(count):
        return (count / n_ops, "count")

    return {
        "cli.main.self_ms": ms(self_t["cli.main"]),
        "representation.build_rep.ms": ms(total["representation.build_rep"]),
        "representation.attach_deformation.ms": ms(total["representation.attach_deformation"]),
        "representation.validate_fuchsian.ms": ms(total["representation.validate_fuchsian"]),
        "representation.validate_fuchsian.tables_built": per_op(vf_tables),
        "identity_engine.choose_truncation.growth_steps": per_op(growth_steps),
        "identity_engine.self_ms": ms(engine_self),
        "identity_engine.tail_bound.calls": per_op(sum(calls[t] for t in tails)),
        "identity_engine.tail_bound.ms": ms(sum(total[t] for t in tails)),
        "torus_curves.enumerate_up_to.calls": per_op(calls["torus_curves.enumerate_up_to"]),
        "torus_curves.enumerate_up_to.ms": ms(total["torus_curves.enumerate_up_to"]),
        "torus_curves.enumerate_up_to.curves": per_op(curves),
        "torus_curves.enumerate_up_to.nodes": per_op(nodes),
        "torus_curves.enumerate_up_to.emit_ratio": (curves / nodes if nodes else 0.0, "ratio"),
        "torus_curves.us_per_curve": (layer_self["torus_curves"] * 1e6 / final if final else 0.0,
                                      "us"),
        "torus_curves.trace.new_nodes": per_op(counts["torus_curves.trace.new_nodes"]),
        "torus_curves.word_matrix.calls": per_op(calls["torus_curves.word_matrix"]),
        "torus_curves.word_matrix.letters": per_op(size["torus_curves.word_matrix"]),
        "torus_curves.word_matrix.ms": ms(total["torus_curves.word_matrix"]),
        "torus_curves.bin_curves.ms": ms(total["torus_curves.bin_curves"]),
        "torus_curves.make_tables.calls": per_op(calls["torus_curves.make_tables"]),
        "torus_curves.TraceTable.built": per_op(calls["torus_curves.TraceTable.__init__"]),
        "torus_curves.export_census.ms": ms(total["torus_curves.export_census"]),
        "torus_curves.export_census.bytes": (size["torus_curves.export_census"] / n_ops, "B"),
        "sl2grp.compose.calls": per_op(calls["sl2grp.compose"]),
        "sl2grp.compose.factors": per_op(size["sl2grp.compose"]),
        "sl2grp.compose.ms": ms(total["sl2grp.compose"]),
        "sl2grp.DualMatrix2.constructed": per_op(counts["sl2grp.DualMatrix2.constructed"]),
        "sl2grp.us_per_curve": (layer_self["sl2grp"] * 1e6 / final if final else 0.0, "us"),
        "dualnum.DualScalar.ops": per_op(counts["dualnum.DualScalar.ops"]),
    }
