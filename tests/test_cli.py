import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mml
from mml import cli, identity_engine as engine
from mml import representation as reprs
from mml.cli import SWEEP_DRAWS_PER_CELL, main
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent)
from mml.sl2grp import commutator


def run(args):
    return main(args)


def test_verify_mcshane_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify-mcshane", "--coords", "4,4,4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ("target", "partial_sum", "residual", "n_max", "tail_bound",
                "m_hat", "kappa_hat", "h_partial_sum", "h_threshold_n", "bins"):
        assert key in report
    assert abs(report["residual"]) <= 1e-6


def test_verify_mcshane_cusp(tmp_path):
    out = tmp_path / "cusp.json"
    assert run(["verify-mcshane", "--coords", "3,3,3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["target"] == 1.0


def test_verify_margulis_rejects_parabolic_boundary(capsys):
    assert run(["verify-margulis", "--coords", "3,3,3"]) == 1
    assert "boundary-parabolic" in capsys.readouterr().err


def test_verify_margulis_zero_deformation(tmp_path):
    out = tmp_path / "zero.json"
    assert run(["verify-margulis", "--coords", "4,4,4", "--deform", "zero",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["residual"] == 0.0


def test_verify_margulis_path_and_tangent(tmp_path):
    out = tmp_path / "m.json"
    assert run(["verify-margulis", "--coords", "4,4,4", "--deform", "path",
                "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["residual"]) <= 1e-5
    assert run(["verify-margulis", "--coords", "4,4,4", "--deform", "tangent",
                "--out", str(out)]) == 0


def test_path_near_x_equal_2_and_no_step_flag(tmp_path, capsys):
    # in the domain, and a difference stencil around x would step below x = 2
    out = tmp_path / "m.json"
    assert run(["verify-margulis", "--coords", "2.00005,300,300", "--deform", "path",
                "--tol", "1e-6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    # the path tangent is exact: there is no step, and no prefix of --help either
    with pytest.raises(SystemExit) as e:
        run(["verify-margulis", "--coords", "4,4,4", "--deform", "path", "--h", "1e-4"])
    assert e.value.code == 1 and capsys.readouterr().err.startswith("usage:")


def test_spec_file(tmp_path):
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps({
        "x": 4, "y": 4, "z": 4,
        "deformation": {"kind": "path", "path_coeffs": [1, 1, 1], "h": 1e-4}}))
    out = tmp_path / "r.json"
    assert run(["verify-margulis", "--spec", str(spec), "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["target"] - 2.6832815737) < 1e-6


def test_invalid_inputs(capsys):
    assert run(["verify-mcshane", "--coords", "1,1"]) == 1
    assert run(["verify-mcshane", "--coords", "1.5,4,4"]) == 1
    assert run(["verify-mcshane", "--spec", "/nonexistent.json"]) == 1
    assert run(["verify-mcshane", "--coords", "4,4,4", "--tol", "-1"]) == 1
    assert run(["verify-mcshane", "--coords", "4,4,4", "--tol", "nan"]) == 1
    assert run(["verify-mcshane", "--coords", "4,4,4", "--tol", "inf"]) == 1
    # in the domain, but tr(a) is within PARABOLIC_TOL of 2: the slope check names 1/0
    capsys.readouterr()
    assert run(["verify-margulis", "--coords", "2.0000000005,100000,100000"]) == 1
    assert capsys.readouterr().err == "error: non-hyperbolic simple curve of slope 1/0\n"


# 1e120: xyz overflows, so the boundary trace reads -inf; 1e200: a square
# overflows, so it reads inf (build_rep rejects these before its round trip).
# The next two read below -2 in floats; exactly, their traces are 2.8e10 and -1.99714.
# The last two (exact traces +1.1e15 and +2.1e17) fail build_rep's trace round trip,
# which reports an outside point with the domain's error.
_OUTSIDE = ["10,3,3", "4,1.5,4", "1.5,4,4", "2,4,4", "2.5,2.5,2.5", "1e120,1e120,1e120",
            "1e200,4,4", "4,1e200,4", "4,4,1e200",
            "2027396.488049708,26191146.853534587,53099839148837.19",
            "7220.101826171673,5755.62103777745,41556167.9139992",
            "2.000000000003938,33257219.382194597,156028.8166929056",
            "2.000000000345692,986.8625495453215,454792077.8649715"]


@pytest.mark.parametrize("command, coords",
                         [pytest.param("verify-mcshane", c, id=c) for c in _OUTSIDE]
                         + [pytest.param(cmd, c, id=f"{cmd}-{c}")
                            for cmd in ("verify-margulis", "census") for c in _OUTSIDE])
def test_verify_mcshane_rejects_coords_outside_the_domain(command, coords, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([command, "--coords", coords, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    kappa = TraceCoords(*map(float, coords.split(","))).boundary_trace()
    assert err.startswith("error: coordinates") and "x, y, z > 2" in err
    assert f"boundary trace {kappa} <= -2" in err and err.count("\n") == 1


@pytest.mark.parametrize("coords", ["2.6943989121171104,7.2604181522038616,4.259065393690246",
                                    "2.2,150,100"])
def test_verify_mcshane_where_a_mediant_is_shorter_than_its_parent(coords, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify-mcshane", "--coords", coords, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert abs(report["residual"]) <= max(report["tail_bound"], 1e-6)


def test_nonconvergence_exit_code(tmp_path):
    assert run(["verify-mcshane", "--coords", "4,4,4", "--tol", "1e-12",
                "--n-ceiling", "10"]) == 2


def test_csv_format(capsys):
    assert run(["verify-mcshane", "--coords", "4,4,4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("target,partial_sum,residual")
    assert len(lines) == 2


def test_census_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run(["census", "--coords", "4,4,4", "--n-max", "20", "--out", str(out1)]) == 0
    assert run(["census", "--coords", "4,4,4", "--n-max", "20", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slope_p", "slope_q", "word", "trace", "length", "bin"]
    assert rows[-1][0] == "m_hat"
    for row in rows[1:-1]:
        assert abs(float(row[3])) > 2.0


@pytest.mark.parametrize("argv", [
    ["census", "--coords", "4,4,4", "--tol", "1e-6"],
    ["census", "--coords", "4,4,4", "--n-ceiling", "10"],
    ["census", "--coords", "4,4,4", "--format", "json"],
    ["sweep", "--coords", "1,1,1"],
    ["sweep", "--spec", "rep.json"],
    ["sweep", "--format", "json"],
    ["verify-mcshane", "--coords", "4,4,4", "--tol", "abc"],
    ["verify-margulis", "--coords", "4,4,4", "--n-max", "5"],
    ["frobnicate"],
    [],
    ["census", "--coords", "4,4,4", "--seed", "1"],
    ["verify-mcshane", "--coords", "3,3,3", "--spec", "rep.json"],
    ["census", "--n-max", "5"],
])
def test_usage_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    # argparse's own exit code, 2, is the one for an uncertified tail
    monkeypatch.chdir(tmp_path)  # where census would write its default census.csv
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mml") and "error: " in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify-margulis", "--coords", "4,4,4", "--deform", "tangent", "--seed", "-1"],
    ["sweep", "--seed", "-3", "--cells", "1", "--deforms-per-cell", "1"],
])
def test_negative_seed_fails_cleanly(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 1
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == f"error: --seed must be >= 0, got {seed}\n"
    assert not out.exists()


def test_empty_spec_path_is_read_as_a_spec(capsys):
    assert run(["verify-mcshane", "--spec", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read spec") and err.count("\n") == 1


@pytest.mark.parametrize("deform", ["zero", "path", "tangent"])
def test_one_boundary_commutator_per_verify_margulis(deform, tmp_path, monkeypatch):
    # the rep is built, then deformed: only the deformed rep's boundary is computed
    calls = []
    monkeypatch.setattr(reprs, "commutator", lambda a, b: calls.append(1) or commutator(a, b))
    assert run(["verify-margulis", "--coords", "4,4,4", "--deform", deform,
                "--out", str(tmp_path / "m.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify-mcshane", "verify-margulis", "census", "sweep"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0 and capsys.readouterr().out.startswith(f"usage: mml {command}")


def test_census_n_max(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert run(["census", "--coords", "4,4,4", "--n-max", "-3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --n-max") and err.count("\n") == 1
    assert not out.exists()
    # no curve at (4,4,4) is that short: the header and m_hat rows alone
    assert run(["census", "--coords", "4,4,4", "--n-max", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["slope_p,slope_q,word,trace,length,bin", "m_hat,0,,,,"]


def test_sweep_small(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--cells", "2", "--deforms-per-cell", "2",
                "--tol", "1e-4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total"] == 4 and data["pass_count"] == 4


def test_sweep_seed_reproducible(tmp_path):
    o1, o2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for o in (o1, o2):
        assert run(["sweep", "--cells", "1", "--deforms-per-cell", "2",
                    "--tol", "1e-4", "--seed", "5", "--out", str(o)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


@pytest.mark.parametrize("coords", ["abc,4,4", "np.float64(4.0),4,4", "nan,4,4",
                                    "4,inf,4", "4,4,-inf"])
def test_unparsable_or_nonfinite_coords_fail_cleanly(coords, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify-mcshane", "--coords", coords]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --coords") and err.count("\n") == 1


@pytest.mark.parametrize("x", ["abc", "NaN", "Infinity", None, [4],
                               pytest.param(10 ** 400, id="huge-int"),
                               pytest.param("4", id="numeric-string"), True])
def test_bad_spec_coordinates_fail_cleanly(x, tmp_path, capsys):
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps({"y": 4, "z": 4}) if x is None
                    else json.dumps({"x": x, "y": 4, "z": 4}).replace('"NaN"', "NaN")
                    .replace('"Infinity"', "Infinity"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify-margulis", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: spec {spec}") and err.count("\n") == 1


def test_nonfinite_path_dir_fails_cleanly(capsys):
    assert run(["verify-margulis", "--coords", "4,4,4", "--deform", "path",
                "--path-dir", "1,nan,1"]) == 1
    assert capsys.readouterr().err.startswith("error: --path-dir")


@pytest.mark.parametrize("command, extra", [("verify-mcshane", []),
                                            ("verify-margulis", ["--deform", "tangent"])])
def test_far_from_cusp_never_certifies_an_empty_census(command, extra, tmp_path):
    # At (200, 200, 200) every curve is longer than the first growth depth, so
    # the first steps enumerate nothing and must not be accepted.
    out = tmp_path / "r.json"
    assert run([command, "--coords", "200,200,200", "--tol", "1e-6",
                "--out", str(out)] + extra) == 0
    report = json.loads(out.read_text())
    assert report["n_max"] > 16 and report["m_hat"] > 0
    assert sum(b["count"] for b in report["bins"]) > 0
    assert abs(report["residual"]) <= max(report["tail_bound"], 1e-6)
    assert report["partial_sum"] > 0.99 * report["target"]


def test_commands_in_sequence_match_fresh_processes(tmp_path, capsys):
    # main reuses one argument parser per process, a failed parse included
    commands = [["verify-mcshane", "--coords", "4,4,4", "--tol", "1e-4"],
                ["census", "--coords", "4,5,6", "--n-max", "16", "--out", "{dir}/census.csv"],
                ["verify-margulis", "--coords", "4,4,4", "--deform", "tangent", "--seed", "7",
                 "--tol", "1e-4"]]
    with pytest.raises(SystemExit):
        main(["verify-mcshane", "--tol", "not-a-number"])
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(mml.__file__).resolve().parents[1]))
    for k, argv in enumerate(commands):
        mine, fresh = tmp_path / f"in-{k}", tmp_path / f"fresh-{k}"
        mine.mkdir()
        fresh.mkdir()
        assert main([a.format(dir=mine) for a in argv]) == 0
        proc = subprocess.run([sys.executable, "-m", "mml.cli"]
                              + [a.format(dir=fresh) for a in argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert capsys.readouterr().out == proc.stdout
        assert [p.read_bytes() for p in sorted(mine.iterdir())] == \
            [p.read_bytes() for p in sorted(fresh.iterdir())]


def test_verify_margulis_reuses_the_validated_tables(monkeypatch, capsys):
    import mml.torus_curves as tc

    built = []
    init = tc.TraceTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tc.TraceTable, "__init__", counting_init)
    assert run(["verify-margulis", "--coords", "4,5,6", "--deform", "tangent",
                "--tol", "1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert len(built) == 1


def _spec_file(tmp_path, deformation, coords=(4, 4, 4)):
    """A spec file at coords with the given deformation object; "NaN" becomes NaN."""
    spec = tmp_path / "rep.json"
    x, y, z = coords
    spec.write_text(json.dumps({"x": x, "y": y, "z": z, "deformation": deformation})
                    .replace('"NaN"', "NaN"))
    return str(spec)


_PATH = ["verify-margulis", "--coords", "4,4,4", "--deform", "path"]


# Each case names its own id, so removing a case renames no other.
@pytest.mark.parametrize("flags, deformation, names", [
    pytest.param(["--path-dir", "1,1"], None, "--path-dir:", id="flags3-None---path-dir:"),
    pytest.param(None, "tangent", "deformation:", id="None-tangent-deformation:"),
    pytest.param(None, {"kind": "path", "path_coeffs": [1, "a", 1]}, "path_coeffs: not a number",
                 id="None-deformation7-path_coeffs: not a number"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [[1, 2, 3]]}},
                 "eps part of A", id="None-deformation8-eps part of A"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [["NaN", 0], [0, 0]]}},
                 "eps part of A", id="None-deformation9-eps part of A"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [[1, "a"], [0, 0]]}},
                 "eps part of A", id="None-deformation10-eps part of A"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [[1, 0], [0, 1]]}},
                 "not tangent", id="None-deformation11-not tangent"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": [[1, 0], [0, 1]]},
                 "deformation:", id="None-deformation12-deformation:"),
    pytest.param(None, {"kind": "curve"}, "deformation:", id="None-deformation13-deformation:"),
    pytest.param(None, {"kind": "path", "path_coeffs": "111"}, "path_coeffs: not a number",
                 id="None-deformation16-path_coeffs: not a number"),
    pytest.param(None, {"kind": "path", "path_coeffs": [1, False, 1]},
                 "path_coeffs: not a number", id="None-deformation17-path_coeffs: not a number"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [["0", "0"], ["0", "0"]]}},
                 "eps part of A: not a number", id="tangent-string-entry"),
    pytest.param(None, {"kind": "tangent",
                        "tangent_matrices": {"B1": [[False, False], [False, False]]}},
                 "eps part of B: not a number", id="tangent-bool-entry"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": 0}},
                 "eps part of A: not a matrix", id="tangent-non-list-matrix"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"A1": [[0, 0], [0]]}},
                 "eps part of A: not a 2x2 matrix", id="tangent-ragged-matrix"),
    pytest.param(None, {"kind": "tangent", "tangent_matrices": {"B1": [[0, 0]] * 3}},
                 "eps part of B: not a 2x2 matrix", id="tangent-three-row-matrix"),
])
def test_bad_deformation_input_fails_cleanly(flags, deformation, names, tmp_path, capsys):
    argv = _PATH + flags if flags else ["verify-margulis", "--spec",
                                        _spec_file(tmp_path, deformation)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err


@pytest.mark.parametrize("deformation", [{"kind": "tangent"}, {"kind": "curve"}],
                         ids=["tangent", "unknown-kind"])
def test_census_does_not_read_the_spec_deformation(deformation, tmp_path):
    # census writes traces and lengths, value parts a deformation never moves
    plain, deformed = tmp_path / "plain.csv", tmp_path / "deformed.csv"
    assert run(["census", "--spec", _spec_file(tmp_path, None), "--out", str(plain)]) == 0
    assert run(["census", "--spec", _spec_file(tmp_path, deformation), "--out", str(deformed)]) == 0
    assert deformed.read_bytes() == plain.read_bytes()


def test_spec_zero_deformation_equals_deform_zero(tmp_path, capsys):
    assert run(["verify-margulis", "--coords", "4,5,6", "--deform", "zero"]) == 0
    flags = capsys.readouterr().out
    assert run(["verify-margulis", "--spec",
                _spec_file(tmp_path, {"kind": "zero"}, (4, 5, 6))]) == 0
    assert capsys.readouterr().out == flags


def test_spec_tangent_matrices_equal_the_library_deformation(tmp_path, capsys):
    rep = build_rep(TraceCoords(4, 5, 6))
    t = random_tangent(rep, np.random.default_rng(3))
    spec = _spec_file(tmp_path, {"kind": "tangent", "tangent_matrices":
                                 {"A1": [t.a_eps[:2], t.a_eps[2:]],
                                  "B1": [t.b_eps[:2], t.b_eps[2:]]}}, (4, 5, 6))
    assert run(["verify-margulis", "--spec", spec]) == 0
    want = engine.margulis_residual(attach_deformation(rep, DeformationSpec(t.a_eps, t.b_eps)))
    assert capsys.readouterr().out == want.to_json() + "\n"


@pytest.mark.parametrize("scale, code", [(1e300, 0), (1e302, 1), (1e304, 2), (1e307, 1)])
def test_huge_tangents_stop_before_the_exact_sums(scale, code, tmp_path, capsys):
    # math.fsum raises on an inf term or an overflowing sum, which main does not catch;
    # an alpha that large makes kappa or the tail infinite, and NonConvergence comes first.
    # At 1e307 the boundary's alpha itself is nan: refused as a float overflow, exit 1
    t = random_tangent(build_rep(TraceCoords(4, 5, 6)), np.random.default_rng(3))
    a, b = ([scale * v for v in m] for m in (t.a_eps, t.b_eps))
    spec = _spec_file(tmp_path, {"kind": "tangent", "tangent_matrices":
                                 {"A1": [a[:2], a[2:]], "B1": [b[:2], b[2:]]}}, (4, 5, 6))
    assert run(["verify-margulis", "--spec", spec, "--tol", "1e300"]) == code
    assert capsys.readouterr().err.count("error:") == (code != 0)


def test_spec_tangent_without_matrices_is_seeded_random(tmp_path, capsys):
    assert run(["verify-margulis", "--coords", "4,5,6", "--deform", "tangent",
                "--seed", "7"]) == 0
    flags = capsys.readouterr().out
    assert json.loads(flags)["kappa_hat"] > 0
    assert run(["verify-margulis", "--spec", _spec_file(tmp_path, {"kind": "tangent"}, (4, 5, 6)),
                "--seed", "7"]) == 0
    assert capsys.readouterr().out == flags


def test_spec_path_equals_deform_path_and_ignores_h(tmp_path, capsys):
    assert run(["verify-margulis", "--coords", "4,5,6", "--deform", "path",
                "--path-dir", "1,2,3"]) == 0
    flags = capsys.readouterr().out
    spec = _spec_file(tmp_path, {"kind": "path", "path_coeffs": [1, 2, 3], "h": 1e-4}, (4, 5, 6))
    assert run(["verify-margulis", "--spec", spec]) == 0
    assert capsys.readouterr().out == flags


@pytest.mark.parametrize("flags", [["--coord-min", "2.1", "--coord-max", "2.9"],
                                   ["--coord-min", "1", "--coord-max", "2"],
                                   ["--coord-min", "nan"],
                                   ["--coord-max", "inf"],
                                   ["--coord-min", "6", "--coord-max", "3.5"],
                                   ["--cells", "0"],
                                   ["--deforms-per-cell", "0"],
                                   ["--deforms-per-cell", "1001"]])
def test_sweep_rejects_an_empty_or_out_of_domain_grid(flags, tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--tol", "1e-4", "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cells, per_cell, code", [(2, 1000, 0), (2, 1001, 1)])
def test_sweep_never_reuses_a_tangent_seed(cells, per_cell, code, monkeypatch, tmp_path):
    # tangent j of cell i is seeded seed + 1000 i + j, so past 1000 per cell the
    # cells would share draws; the recording stand-in stops at the first repeat
    seeds = []

    def cell(coords, seed, tol, n_ceiling):
        assert seed not in seeds, f"seed {seed} drawn twice"
        seeds.append(seed)
        return {"passed": True}

    monkeypatch.setattr(cli, "_sweep_cell", cell)
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--cells", str(cells), "--deforms-per-cell", str(per_cell),
                "--out", str(out)]) == code
    assert len(seeds) == (cells * per_cell if code == 0 else 0)


@pytest.mark.parametrize("lo, hi", [("3.5", "1e300"),   # x*x overflows: no draw is in the domain
                                    ("2.5", "3.001")])  # the domain is a sliver of the box
def test_sweep_that_cannot_fill_its_box_stops(lo, hi, tmp_path):
    out = tmp_path / "sweep.json"
    env = dict(os.environ, PYTHONPATH=str(Path(mml.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mml.cli", "sweep", "--coord-min", lo,
                           "--coord-max", hi, "--cells", "1", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --coord-min") and proc.stderr.count("\n") == 1
    assert f"0 of 1 cells in the domain after {SWEEP_DRAWS_PER_CELL} draws" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify-margulis", "--coords", "4,4,4", "--deform", "path",
     "--path-dir", "1e308,1e308,1e308"],  # the path tangent overflows
    ["census", "--coords", "1e120,1e120,1e120"],  # the commutator overflows
    ["verify-margulis", "--coords", "1e120,1e120,1e120", "--deform", "tangent"],
], ids=["path-tangent-overflow", "census-overflow", "tangent-overflow"])
def test_overflowing_input_prints_one_error_line(argv, tmp_path):
    # in a subprocess, so a RuntimeWarning would reach stderr rather than pytest
    env = dict(os.environ, PYTHONPATH=str(Path(mml.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mml.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, n_max", [
    (["verify-mcshane", "--coords", "1e100,1e100,1e100"], 1424),
    (["verify-margulis", "--coords", "1e100,1e100,1e100", "--deform", "path"], 968),
    (["verify-mcshane", "--coords", "1e80,1e80,1e20"], 872),
], ids=["mcshane-summand", "margulis-summand", "mcshane-skewed-summand"])
def test_summands_past_the_exp_range_give_a_verdict(argv, n_max, tmp_path):
    # in the domain, with summands whose e^w overflows (w > 709.78), each then ~ e^-w
    env = dict(os.environ, PYTHONPATH=str(Path(mml.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mml.cli", *argv, "--n-ceiling", "2000"],
                          capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["passed"] is True and report["n_max"] == n_max


@pytest.mark.xfail(strict=True, reason=(
    "known defect: kind() admits the point (exact boundary trace -2.0000000364), but "
    "build_rep's float matrices are too ill-conditioned at these magnitudes to resolve the "
    "boundary trace: their commutator's trace -1.9999999276572584 is refused by "
    "translation_length.  Reading the boundary length from the exact trace instead breaks "
    "test_a_near_cusp_point_is_verified_against_its_reps_boundary; the mend is the root "
    "reduction, or a gate that refuses points whose float rep cannot resolve the trace"))
def test_a_point_just_inside_the_cusp_gets_a_verdict():
    coords = "769.493177263098,50.79849127543404,39073.87255673075"
    assert TraceCoords(*map(float, coords.split(","))).kind() == "inside"
    assert run(["verify-mcshane", "--coords", coords]) == 0


def test_a_near_cusp_point_is_verified_against_its_reps_boundary(tmp_path):
    # exact boundary trace -2.00114, the commutator of the float rep's matrices
    # -2.00080: the enumerated lengths belong to the rep, so its boundary length
    # balances them (residual 1.7e-9), and the exact one does not (residual -2.6e-6
    # against a tail bound 1.8e-7, exit 2)
    coords = "888.699392673159,2646.842638982651,2352244.131669431"
    out = tmp_path / "near-cusp.json"
    assert TraceCoords(*map(float, coords.split(","))).kind() == "inside"
    assert run(["verify-mcshane", "--coords", coords, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def _readme_examples() -> tuple[list[list[str]], list[str]]:
    """The `mml ...` lines of README's CLI shell block, and its JSON spec examples."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = text[text.index("## CLI"):]
    cli = cli[:cli.index("\n## ", 1)]
    shell = cli[cli.index("```sh\n") + 6:]
    shell = shell[:shell.index("```")]
    commands = [line.split()[1:] for line in shell.splitlines() if line.startswith("mml ")]
    specs = [block.split("```")[0] for block in cli.split("```json\n")[1:]]
    return commands, specs


def test_readme_cli_examples_run(tmp_path):
    commands, specs = _readme_examples()
    assert len(commands) >= 5 and len(specs) >= 1
    for k, argv in enumerate(commands):
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        else:
            argv += ["--out", str(tmp_path / f"out-{k}")]
        assert main(argv) == 0, argv
    for k, text in enumerate(specs):
        spec = tmp_path / f"spec-{k}.json"
        spec.write_text(text)
        assert main(["verify-margulis", "--spec", str(spec),
                     "--out", str(tmp_path / f"spec-{k}.out")]) == 0, text
