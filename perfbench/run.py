"""Benchmark of the mml command line: seeded workloads, checked outputs, one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload margulis_deep --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each op is one in-process call of
``mml.cli.main(argv)`` on an argv generated from the workload seed, and the
next op starts when the previous one has returned and its output has been
checked.  ``MML_THREADS`` is removed from the environment, so ``sweep`` runs
its cells serially.

Each workload generates a pool of inputs from the seed and cycles through
it for ``--seconds``, and at least once through all of it; the op times and
ops/s come from the whole passes.  An op counts as
failed on a non-zero exit, an exception, or a failed output check; a
repeated input must give byte-identical output (the fixed-summation-order
contract).  The digest line hashes the numeric report fields of the whole
pool, so two commits that report the same numbers print the same digest.

Times are wall times scaled to one CPU speed (see ``SpeedProbe``): this
box's cores are shared, and their speed changes by up to ~1.8x while a run
lasts.  The unscaled figures are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the first quarter of the pool and prints the
per-layer metrics (per-op means from ``layers.Tracer``) and the tracing
overhead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit and the sample counts behind it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters started to sample set-up time, besides this process.
SETUP_CHILDREN = 6



def declared_metrics(kind: str) -> list[str]:
    """Metric names BENCHMARK.json declares under ``kind`` (end_to_end or per_layer).

    A traced run prints every per-layer metric it measures, but puts in the
    result object only these: the rest read 0 on a workload that never
    enters their layer, and no metric in the result object may read 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def import_mml():
    """Import ``mml`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mml" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mml sources under {SRC}")
    # Every set-up compiles the mml sources alike: no .pyc is written, and
    # none is read from a __pycache__ the checkout may hold (an earlier test
    # run leaves one), because Python looks for them under a prefix that
    # stays empty.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT_DIR / "no-pycache")
    sys.path.insert(0, str(SRC))
    import mml
    from mml import cli, identity_engine, representation

    if SRC.resolve() not in Path(mml.__file__).resolve().parents:
        sys.exit(f"perfbench: imported mml from {mml.__file__}, not from {SRC}")
    return cli, identity_engine, representation


# ---------------------------------------------------------------- inputs


def _fmt(values) -> str:
    # repr(float(v)): str() of a numpy scalar reads "np.float64(...)", which
    # the CLI's --coords parser cannot read.
    return ",".join(repr(float(v)) for v in values)


def _jittered_grid(rng, m: int, lo: float, hi: float, dims: int) -> list[list[float]]:
    """One uniform point in each of the m**dims cells of [lo, hi]**dims, in random order.

    Per-op cost is a smooth function of the coordinates, so a pool that
    covers every cell has nearly the same cost distribution, tail included,
    for every seed; plain uniform draws do not.
    """
    cells = np.stack(np.meshgrid(*[np.arange(m)] * dims, indexing="ij"), -1).reshape(-1, dims)
    pts = lo + (hi - lo) * (cells + rng.random(cells.shape)) / m
    return pts[rng.permutation(len(pts))].tolist()


def _in_domain_box(rng, reprs, m: int) -> list[list[float]]:
    """m**3 in-domain trace coordinates in [3.5, 6]^3, the box ``sweep`` draws from."""
    out = []
    for c in _jittered_grid(rng, m, 3.5, 6.0, 3):
        while not reprs.TraceCoords(*c).in_domain():
            c = rng.uniform(3.5, 6.0, 3)
        out.append(c)
    return out


def inputs_margulis_deep(rng, reprs, engine):
    coords = _in_domain_box(rng, reprs, 5)
    seeds = rng.integers(0, 2**31 - 1, len(coords))
    return [["verify-margulis", "--coords", _fmt(c), "--deform", "tangent",
             "--seed", str(int(s)), "--tol", "1e-10"] for c, s in zip(coords, seeds)]


def inputs_sweep_grid(rng, reprs, engine):
    # sweep draws its own cell coordinates from --seed
    seeds = rng.choice(2**31 - 1, size=32, replace=False)
    return [["sweep", "--cells", "2", "--deforms-per-cell", "5", "--tol", "1e-6",
             "--seed", str(int(s))] for s in seeds]


def inputs_mcshane_cusp(rng, reprs, engine):
    out = []
    for x, y in _jittered_grid(rng, 8, 3.0, 5.0, 2):
        # larger root of z^2 - xyz + x^2 + y^2 = 0: boundary trace -2
        z = (x * y + math.sqrt(x * x * y * y - 4.0 * (x * x + y * y))) / 2.0
        c = reprs.TraceCoords(x, y, z)
        if not (min(c.x, c.y, c.z) > 2.0
                and abs(c.boundary_trace() + 2.0) <= engine.PARABOLIC_TOL):
            raise ValueError(f"cusp input {c} is off the cusp locus")
        out.append(["verify-mcshane", "--coords", _fmt((c.x, c.y, c.z)), "--tol", "1e-10"])
    return out


def inputs_census_export(rng, reprs, engine):
    return [["census", "--coords", _fmt(c), "--n-max", "70", "--out", str(census_path())]
            for c in _in_domain_box(rng, reprs, 6)]


def census_path() -> Path:
    return OUT_DIR / f"census-{os.getpid()}.csv"


#: The warm-up op runs the first input of this seed's pool, whatever the
#: run's seed, so set-up time does not vary with the cost of a seed's inputs.
WARMUP_SEED = 0


# ---------------------------------------------------------------- checks


def _tol(argv) -> float:
    return float(argv[argv.index("--tol") + 1])


def _check_series(report: dict, tol: float, where: str) -> list[str]:
    errs = []
    if report["passed"] is not True:
        errs.append(f"{where}: passed is {report['passed']!r}")
    if not abs(report["residual"]) <= max(report["tail_bound"], tol):
        errs.append(f"{where}: |residual| {abs(report['residual'])} > "
                    f"max(tail_bound {report['tail_bound']}, tol {tol})")
    return errs


def check_verify(argv, out: bytes):
    report = json.loads(out)
    fields = {k: report[k] for k in ("residual", "partial_sum", "n_max", "tail_bound")}
    fields["bin_counts"] = [b["count"] for b in report["bins"]]
    return _check_series(report, _tol(argv), "report"), fields


def check_sweep(argv, out: bytes):
    payload = json.loads(out)
    cells = payload["cells"]
    errs = []
    if not payload["pass_count"] == payload["total"] == len(cells) == 10:
        errs.append(f"pass_count {payload['pass_count']} / total {payload['total']} "
                    f"/ {len(cells)} cells, wanted 10 passing")
    for i, cell in enumerate(cells):
        errs += _check_series(cell, _tol(argv), f"cell {i}")
    return errs, {"cells": cells}


def check_census(argv, out: bytes):
    rows = out.decode().splitlines()
    n_max = int(argv[argv.index("--n-max") + 1])
    errs = []
    if rows[0] != "slope_p,slope_q,word,trace,length,bin" or not rows[-1].startswith("m_hat,"):
        return ["census header or m_hat row missing"], None
    body = [r.split(",") for r in rows[1:-1]]
    bins = [int(r[5]) for r in body]
    if not body:
        errs.append("census has no curve rows")
    if bins != sorted(bins) or not all(0 <= b <= n_max for b in bins):
        errs.append("census bins out of order or outside [0, n_max]")
    if any(int(r[5]) != math.floor(2.0 * float(r[4]) + 1e-9) and
           int(r[5]) != math.floor(2.0 * float(r[4]) - 1e-9) for r in body):
        errs.append("census row bin does not match 2*length")
    m_hat = max((c / (b + 1) ** 2 for b, c in Counter(bins).items()), default=0.0)
    if rows[-1] != f"m_hat,{m_hat:.12g},,,,":
        errs.append(f"census m_hat row {rows[-1]!r}, recomputed {m_hat:.12g}")
    return errs, {"rows": len(body), "csv_sha256": hashlib.sha256(out).hexdigest()}


def check_census_curves(argv, out: bytes) -> list[str]:
    """Census rows against the curves an enumeration apart from the CLI returns."""
    from mml import representation, torus_curves

    coords = [float(v) for v in argv[argv.index("--coords") + 1].split(",")]
    n_max = int(argv[argv.index("--n-max") + 1])
    rep = representation.build_rep(representation.TraceCoords(*coords))
    curves = len(torus_curves.enumerate_up_to(rep, n_max + 1))
    rows = len(out.decode().splitlines()) - 2
    return [] if rows == curves else [f"census wrote {rows} rows for {curves} curves"]


WORKLOADS = {
    # name: (input pool generator, output check, check on an input's first run)
    "margulis_deep": (inputs_margulis_deep, check_verify, None),
    "sweep_grid": (inputs_sweep_grid, check_sweep, None),
    "mcshane_cusp": (inputs_mcshane_cusp, check_verify, None),
    "census_export": (inputs_census_export, check_census, check_census_curves),
}


# ---------------------------------------------------------------- running


class Runner:
    """Runs ops through ``cli.main`` and keeps the tallies of one benchmark run.

    ``first_check``, if any, runs once per input, on its first run; the time
    it takes is summed in ``untimed_s`` and charged to no metric.
    """

    def __init__(self, cli, check, first_check=None):
        self.cli = cli
        self.check = check
        self.first_check = first_check
        self.untimed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[tuple, bytes] = {}
        self.fields: dict[tuple, object] = {}
        self.errors: list[str] = []

    def op(self, argv) -> float:
        """Run one op; return its wall time in ms.  Failures are tallied, never raised."""
        self.attempted += 1
        out_buf, err_buf = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                rc = self.cli.main(argv)
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            rc = f"{type(e).__name__}: {e}"
        ms = (time.perf_counter() - t0) * 1e3
        errs = self._check(argv, rc, out_buf.getvalue(), err_buf.getvalue())
        if errs:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {'; '.join(errs)}")
        return ms

    def _check(self, argv, rc, stdout: str, stderr: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc!r}: {stderr.strip()}"]
        out = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv \
            else stdout.encode()
        key = tuple(argv)
        try:
            errs, fields = self.check(argv, out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return [f"unreadable output: {type(e).__name__}: {e}"]
        if key not in self.first_output:
            self.first_output[key] = out
            self.fields[key] = fields
            if self.first_check is not None:
                t0 = time.perf_counter()
                errs += self.first_check(argv, out)
                self.untimed_s += time.perf_counter() - t0
        elif out != self.first_output[key]:
            errs.append("output differs from the first run of the same input")
        return errs

    def digest(self, pool) -> str:
        blob = json.dumps([self.fields.get(tuple(a)) for a in pool], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


class SpeedProbe:
    """Times a fixed reference kernel, to scale wall times to one CPU speed.

    The benchmark shares its cores with other tenants, and their load slows
    every instruction by up to ~1.8x for seconds to minutes at a time (CPU
    time grows with wall time, so it is not descheduling).  The kernel mixes
    what an op does (small numpy 2x2 products, array construction, Python
    float arithmetic) and runs between ops.  An op's wall time is scaled by
    ``REFERENCE_MS`` over the mean of the kernel times just before and just
    after it.  Each kernel time is the median of several timed runs, so a
    single interrupt inside one run does not set the scale.
    """

    #: Kernel time (ms) on an idle core of the 2-vCPU Xeon the bounds were
    #: set on (Python 3.11, numpy 2.4): scaled times read as ms on that core.
    REFERENCE_MS = 0.9
    STEPS = 300

    def __init__(self):
        self._a = np.array([[1.0, 0.5], [0.2, 1.1]])
        self._b = np.array([[0.9, 0.1], [0.3, 1.2]])
        self._last = self.kernel_ms()

    def kernel_ms(self, runs: int = 3) -> float:
        """Median time (ms) of ``runs`` runs of the kernel."""
        a, b = self._a, self._b
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            m = a
            for _ in range(self.STEPS):
                m = np.asarray(m @ b, dtype=float)
                m.setflags(write=False)
                m = m / (abs(m[0, 0]) + 1.0) + a
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    def measure(self) -> tuple[float, float]:
        """Kernel times (before, after) around the interval since the previous call."""
        before, self._last = self._last, self.kernel_ms()
        return before, self._last


#: An op is re-run, up to ``TRIES`` times in all, when the kernel times
#: around it differ by more than this factor: the speed changed during the
#: op, so the scale would be a guess.
STEADY = 1.25
TRIES = 3


def timed_op(runner, probe, argv, tries=TRIES):
    """Run one op until the CPU speed held steady around it.

    Returns (scaled op ms, scaled ms of every try including output checks
    but not the runner's untimed ones, number of tries, raw op ms).  Each
    try is a checked, counted op.
    """
    busy = 0.0
    for n in range(1, tries + 1):
        t0, untimed0 = time.perf_counter(), runner.untimed_s
        ms = runner.op(argv)
        elapsed = (time.perf_counter() - t0 - (runner.untimed_s - untimed0)) * 1e3
        before, after = probe.measure()
        s = 2.0 * probe.REFERENCE_MS / (before + after)
        busy += elapsed * s
        if max(before, after) <= STEADY * min(before, after):
            break
    return ms * s, busy, n, ms


def tail_percentile(samples):
    """(value, percentile, beyond): p90, or the highest percentile with 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    q = min(0.90, (n - 10) / n) if n > 10 else 0.5
    rank = max(1, math.ceil(q * n - 1e-9))
    return xs[rank - 1], 100.0 * q, n - rank


def setup_samples(args, probe) -> list[float]:
    """Scaled set-up time of fresh interpreters doing this run's import, inputs and warm-up.

    Each set-up is scaled by the kernel times just before it (here) and just
    after it (in the child), and re-run like an op when they differ by more
    than ``STEADY``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_CHILDREN):
        for _ in range(TRIES):
            before = probe.kernel_ms(runs=15)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
            raw, after = map(float, proc.stdout.split()[-2:])
            if max(before, after) <= STEADY * min(before, after):
                break
        out.append(raw * 2.0 * probe.REFERENCE_MS / (before + after))
    return out


def emit(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up (import, inputs, warm-up op), print it and the "
                         "kernel time after it, and exit")
    args = ap.parse_args(argv)

    os.environ.pop("MML_THREADS", None)
    cli, engine, reprs = import_mml()

    make_inputs, check, first_check = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        pool = make_inputs(np.random.default_rng(args.seed), reprs, engine)
        warmup = make_inputs(np.random.default_rng(WARMUP_SEED), reprs, engine)[0]
        runner = Runner(cli, check, first_check)
        runner.op(warmup)  # fills the process-wide christoffel_word cache
        setup_raw = time.perf_counter() - T_START - runner.untimed_s
        probe = SpeedProbe()
        kernel = probe.kernel_ms(runs=15)
        if args.setup_only:
            print(f"setup {setup_raw!r} {kernel!r}")
            return 0
        setup_s = setup_raw * probe.REFERENCE_MS / kernel
        if args.trace:
            metrics = traced_run(args, runner, probe, pool[: len(pool) // 4])
        else:
            metrics = untraced_run(args, runner, probe, pool, setup_s, setup_raw)
    finally:
        census_path().unlink(missing_ok=True)

    for e in runner.errors[:20]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def untraced_run(args, runner, probe, pool, setup_s, setup_raw) -> dict:
    ops = []  # (scaled ms, scaled busy s, tries, raw ms) per input run
    t_loop = time.perf_counter()
    while time.perf_counter() - t_loop < args.seconds or len(ops) < len(pool):
        ms, busy_ms, tries, raw_ms = timed_op(runner, probe, pool[len(ops) % len(pool)])
        ops.append((ms, busy_ms / 1e3, tries, raw_ms))
    wall = time.perf_counter() - t_loop
    attempted = sum(o[2] for o in ops)
    setups = [setup_s] + setup_samples(args, probe)

    # Statistics over whole passes through the pool only: a last, partial
    # pass would weigh the inputs it reached twice, and which inputs those
    # are changes with the seed and with the speed of the machine.
    whole = ops[: len(ops) - len(ops) % len(pool)]
    samples = [o[0] for o in whole]
    raw = [o[3] for o in whole]
    done = sum(o[2] for o in whole)
    busy = sum(o[1] for o in whole)

    tail, pct, beyond = tail_percentile(samples)
    n = len(samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups)
                    + f"; unscaled {setup_raw:.3f} here"),
        "op_ms_p50": (statistics.median(samples), "ms",
                      f"{n} ops in {n // len(pool)} whole passes, {len(ops) - n} after them "
                      f"left out, {done - n} re-run; unscaled {statistics.median(raw):.3f}"),
        "op_ms_p90": (tail, "ms", f"p{pct:.1f} of {n} ops, {beyond} beyond it"),
        "ops_per_s": (done / busy, "1/s",
                      f"unscaled {attempted / wall:.3f}: {attempted} ops in {wall:.2f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss"),
    }
    for name, (value, unit, note) in metrics.items():
        emit(name, value, unit, note)
    emit("fail_frac", runner.failed / runner.attempted, "ratio",
         f"{runner.failed} of {runner.attempted} ops; the result's failed/attempted")
    print(f"digest {args.workload} seed={args.seed} inputs={len(pool)} "
          f"sha256={runner.digest(pool)}")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared_metrics("end_to_end")}


def traced_run(args, runner, probe, inputs) -> dict:
    import layers

    tracer = layers.Tracer()
    plain, traced, scale = [], [], {}
    t_loop = time.perf_counter()
    while not traced or time.perf_counter() - t_loop < args.seconds:
        plain += [timed_op(runner, probe, a, tries=1)[0] for a in inputs]
        tracer.install()
        try:
            for a in inputs:
                tracer.op = len(traced)
                ms, _, _, raw_ms = timed_op(runner, probe, a, tries=1)
                traced.append(ms)
                scale[tracer.op] = ms / raw_ms
        finally:
            tracer.uninstall()

    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(spans_file)
    metrics = layers.per_layer_metrics(tracer, scale)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain), "ms")
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    print(f"traced {len(traced)} ops over {len(inputs)} inputs, untraced {len(plain)}; "
          f"scaled op_ms_p50 traced {statistics.median(traced):.3f} untraced "
          f"{statistics.median(plain):.3f}; {len(tracer.spans)} spans in "
          f"{spans_file.relative_to(ROOT)}")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in declared_metrics("per_layer")}


if __name__ == "__main__":
    sys.exit(main())
