"""Smoke checks that the benchmark's counters reconcile with the reports.

Run from the root of a checkout (outside the tier-1 suite, by name):

    python3 -m pytest -q perfbench/smoke_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

cli, engine, reprs = run.import_mml()
import layers  # noqa: E402

COUNTS = ("identity_engine.choose_truncation.growth_steps", "torus_curves.trace.new_nodes",
          "torus_curves.word_matrix.letters", "sl2grp.DualMatrix2.constructed",
          "torus_curves.enumerate_up_to.curves")


def traced(fn, *args):
    tracer = layers.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return result, tracer


def cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0
    return json.loads(buf.getvalue())


def test_margulis_deep_counters_reconcile():
    argv = run.inputs_margulis_deep(np.random.default_rng(1), reprs, engine)[0]
    report, tracer = traced(cli_json, argv)
    m = layers.per_layer_metrics(tracer, {0: 1.0})
    assert tracer.final_curves() == sum(b["count"] for b in report["bins"])
    assert m["torus_curves.word_matrix.calls"][0] == m["torus_curves.trace.new_nodes"][0] > 0
    assert m["representation.validate_fuchsian.tables_built"][0] > 0
    _, again = traced(cli_json, argv)
    m2 = layers.per_layer_metrics(again, {0: 1.0})
    assert [m[k] for k in COUNTS] == [m2[k] for k in COUNTS]


@pytest.mark.parametrize("tol, n_max, curves", [(1e-6, 64, 144), (1e-10, 88, 288)])
def test_roadmap_baseline_at_444(tol, n_max, curves):
    rep = reprs.build_rep(reprs.TraceCoords(4.0, 4.0, 4.0))
    rep = reprs.attach_deformation(
        rep, reprs.random_tangent(rep, np.random.default_rng(cli.DEFAULT_SEED)))
    report, tracer = traced(engine.margulis_residual, rep, tol)
    m = layers.per_layer_metrics(tracer, {0: 1.0})
    assert report.n_max == n_max
    assert sum(b.count for b in report.bins) == tracer.final_curves() == curves
    assert m["torus_curves.word_matrix.calls"][0] == m["torus_curves.trace.new_nodes"][0]
    assert m["identity_engine.choose_truncation.growth_steps"][0] == (n_max - 16) // 8 + 1


def test_census_rows_equal_emitted_curves(tmp_path):
    argv = run.inputs_census_export(np.random.default_rng(2), reprs, engine)[0]
    argv[argv.index("--out") + 1] = str(tmp_path / "census.csv")
    rc, tracer = traced(cli.main, argv)
    assert rc == 0
    rows = (tmp_path / "census.csv").read_text().splitlines()
    assert len(rows) - 2 == tracer.final_curves() > 0
    assert run.check_census_curves(argv, (tmp_path / "census.csv").read_bytes()) == []
    errs, _ = run.check_census(argv, (tmp_path / "census.csv").read_bytes())
    assert errs == []


def test_declared_per_layer_metrics_are_measured_with_their_units(tmp_path):
    # census_export enters the fewest layers: a declared metric must not read 0 there
    argv = run.inputs_census_export(np.random.default_rng(3), reprs, engine)[0]
    argv[argv.index("--out") + 1] = str(tmp_path / "census.csv")
    _, tracer = traced(lambda a: cli.main(a), argv)  # resolve cli.main once wrapped
    measured = layers.per_layer_metrics(tracer, {0: 1.0})
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead_ms":  # computed by run.traced_run
            assert measured[m["name"]][1] == m["unit"], m["name"]
            assert measured[m["name"]][0] > 0, m["name"]


def test_uninstall_restores_every_wrapped_name():
    sites = [(o, a) for _, _, s in layers._SPANS for o, a in s]
    sites += [(o, a) for _, s in layers._COUNTERS for o, a in s]
    sites.append((layers.torus_curves.TraceTable, "trace"))
    before = [getattr(o, a) for o, a in sites]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(sites, before))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is b for (o, a), b in zip(sites, before))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1, 201)) == (180, 90.0, 20)
    value, pct, beyond = run.tail_percentile(range(1, 31))
    assert (value, beyond) == (20, 10) and pct == pytest.approx(100 * 20 / 30)
