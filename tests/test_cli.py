import csv
import json
import warnings

import pytest

from mml.cli import main


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


def test_spec_file(tmp_path):
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps({
        "x": 4, "y": 4, "z": 4,
        "deformation": {"kind": "path", "path_coeffs": [1, 1, 1], "h": 1e-4}}))
    out = tmp_path / "r.json"
    assert run(["verify-margulis", "--spec", str(spec), "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["target"] - 2.6832815737) < 1e-6


def test_invalid_inputs():
    assert run(["verify-mcshane", "--coords", "1,1"]) == 1
    assert run(["verify-mcshane", "--coords", "1.5,4,4"]) == 1
    assert run(["verify-mcshane", "--spec", "/nonexistent.json"]) == 1
    assert run(["verify-mcshane", "--coords", "4,4,4", "--tol", "-1"]) == 1


@pytest.mark.parametrize("coords", ["10,3,3", "4,1.5,4", "2.5,2.5,2.5"])
def test_verify_mcshane_rejects_coords_outside_the_domain(coords, capsys):
    assert run(["verify-mcshane", "--coords", coords]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coordinates") and "x, y, z > 2" in err
    assert "boundary trace" in err and "<= -2" in err and err.count("\n") == 1


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


@pytest.mark.parametrize("x", ["abc", "NaN", "Infinity", None, [4]])
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
