"""A seeded corpus of mml command lines, and the hash of what each one does.

corpus() draws about 200 argv from random.Random(SEED): all four subcommands,
x and y log-uniform in [2, 2000] or [2, 12], z inside the domain or near a cusp
end (1e-12 to 1e-1 relative, on either side), report, census and sweep files,
spec files with huge tangent scales, usage errors, and two known failures.
probe() runs each argv in process, in a scratch working directory with
relative file names, and hashes (exit code, stdout, stderr, warnings, files
written), so a hash moves with any byte the command writes and with nothing
else.  PROBE_cli.json at the repo root holds the recorded hashes;
tests/test_cli_probe.py fails on any change.  After a deliberate behaviour
change, record it again from the repo root with

    PYTHONPATH=src python tests/cli_probe.py

and list every changed argv in CHANGES.md.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

from mml import cli

SEED = 36
COUNT = 200
RECORD = Path(__file__).resolve().parents[1] / "PROBE_cli.json"

# verify-mcshane refuses it: slope 4/1's recursion and word matrix disagree
DEFECT_2 = ["verify-mcshane", "--coords", "49.82985893051866,68555654.53713776,1376349.2033772469"]
# test_a_point_just_inside_the_cusp_gets_a_verdict, the strict xfail: kind() admits
# it, and the float boundary trace is refused as not hyperbolic
STRICT_XFAIL = ["verify-mcshane", "--coords", "769.493177263098,50.79849127543404,39073.87255673075"]

_USAGE_ERRORS = [
    [], ["--help"], ["verify-mcshane"], ["frobnicate", "--coords", "4,4,4"],
    ["verify-mcshane", "--coords", "4,4"], ["verify-mcshane", "--coords", "4,x,4"],
    ["verify-mcshane", "--coords", "nan,4,4"], ["verify-mcshane", "--coords", "4,inf,4"],
    ["verify-mcshane", "--coords", "4,4,4", "--spec", "rep.json"],
    ["verify-mcshane", "--coords", "4,4,4", "--tol", "0"],
    ["verify-mcshane", "--coords", "4,4,4", "--tol", "-1e-6"],
    ["verify-mcshane", "--coords", "4,4,4", "--tol", "inf"],
    ["verify-mcshane", "--coords", "4,4,4", "--tol", "abc"],
    ["verify-mcshane", "--coords", "4,4,4", "--n-ceiling", "0"],
    ["verify-mcshane", "--coords", "4,4,4", "--format", "xml"],
    ["verify-mcshane", "--coords", "4,4,4", "--h"],
    ["verify-margulis", "--coords", "4,4,4", "--deform", "bend"],
    ["verify-margulis", "--coords", "4,4,4", "--deform", "tangent", "--seed", "-1"],
    ["verify-margulis", "--coords", "4,4,4", "--deform", "path", "--path-dir", "1,1"],
    ["verify-margulis", "--coords", "4,4,4", "--deform", "path", "--path-dir", "1,nan,1"],
    ["verify-margulis", "--coords", "3,3,3"],
    ["verify-margulis", "--spec", "missing.json"],
    ["census", "--coords", "4,4,4", "--n-max", "-1"],
    ["census", "--coords", "4,4,4", "--seed", "3"],
    ["sweep", "--cells", "0"], ["sweep", "--deforms-per-cell", "1001"],
    ["sweep", "--coord-min", "5", "--coord-max", "2"],
    ["sweep", "--coord-min", "2", "--coord-max", "3"],
    ["sweep", "--cells", "1", "--coord-max", "inf"],
]


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _coords(rng: random.Random) -> list[float]:
    """x, y log-uniform; z between the cusp ends z- < z+ (the roots of x^2 + y^2 +
    z^2 = xyz, where the boundary trace is -2), or 1e-12..1e-1 relative off an end."""
    top = 2000.0 if rng.random() < 0.5 else 12.0
    x, y = _loguniform(rng, 2.0, top), _loguniform(rng, 2.0, top)
    disc = (x * y) ** 2 - 4.0 * (x * x + y * y)
    if disc <= 0:  # no z is inside: a point near the would-be ends
        return [x, y, x * y / 2.0 * _loguniform(rng, 0.5, 2.0)]
    ends = ((x * y - math.sqrt(disc)) / 2.0, (x * y + math.sqrt(disc)) / 2.0)
    if rng.random() < 0.4:
        return [x, y, rng.uniform(*ends)]
    end, r = rng.choice(ends), _loguniform(rng, 1e-12, 1e-1)
    return [x, y, end * (1.0 + r * rng.choice((-1.0, 1.0)))]


def _coord_text(rng: random.Random) -> str:
    return ",".join(repr(v) for v in _coords(rng))


def _series(rng: random.Random) -> list[str]:
    argv = []
    if rng.random() < 0.6:
        argv += ["--tol", rng.choice(["1e-3", "1e-6", "1e-8", "1e-10"])]
    if rng.random() < 0.2:
        argv += ["--n-ceiling", rng.choice(["8", "24", "40", "200"])]
    if rng.random() < 0.3:
        argv += ["--out", "report.out"]
    return argv


def _huge_tangent_spec(rng: random.Random) -> dict:
    """A spec whose A eps part is s * diag(1, -1) A, tangent at A, for a huge scale s."""
    x, y, z = _coords(rng) if rng.random() < 0.5 else (4.0, 5.0, 6.0)
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    s = 10.0 ** rng.choice([0, 20, 100, 150, 200, 300])
    return {"x": x, "y": y, "z": z, "deformation": {
        "kind": "tangent", "tangent_matrices": {"A1": [[s * lam, 0.0], [0.0, -s / lam]]}}}


def _draw(rng: random.Random) -> dict:
    """One random case: {"argv": [...]}, plus "inputs" {name: text} for a spec."""
    kind = rng.choices(["verify-mcshane", "verify-margulis", "census", "sweep", "spec"],
                       weights=[30, 36, 14, 6, 14])[0]
    if kind == "spec":
        spec = _huge_tangent_spec(rng)
        argv = ["verify-margulis", "--spec", "rep.json"] + _series(rng)
        return {"argv": argv, "inputs": {"rep.json": json.dumps(spec)}}
    if kind == "census":
        argv = ["census", "--coords", _coord_text(rng), "--n-max", str(rng.randint(0, 70))]
        return {"argv": argv + (["--out", "c.csv"] if rng.random() < 0.5 else [])}
    if kind == "sweep":
        argv = ["sweep", "--cells", str(rng.randint(1, 2)), "--deforms-per-cell",
                str(rng.randint(1, 2)), "--seed", str(rng.randint(0, 10 ** 6)),
                "--tol", rng.choice(["1e-4", "1e-6"])]
        if rng.random() < 0.3:
            argv += ["--coord-min", "3.5", "--coord-max", rng.choice(["4", "8"])]
        return {"argv": argv + (["--out", "sweep.json"] if rng.random() < 0.3 else [])}
    argv = [kind, "--coords", _coord_text(rng)] + _series(rng)
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(["json", "csv"])]
    if kind == "verify-margulis":
        deform = rng.choice(["zero", "path", "tangent", "tangent"])
        argv += ["--deform", deform]
        if deform == "tangent" and rng.random() < 0.7:
            argv += ["--seed", str(rng.randint(0, 10 ** 9))]
        if deform == "path" and rng.random() < 0.5:
            scale = rng.choice([1.0, 1e100, 1e300])
            argv.append("--path-dir=" + ",".join(repr(rng.randint(-3, 3) * scale) for _ in range(3)))
    return {"argv": argv}


def corpus(seed: int = SEED, count: int = COUNT) -> list[dict]:
    """The fixed cases (the two known failures and the usage errors), then random
    draws up to count cases."""
    cases = [{"argv": DEFECT_2}, {"argv": STRICT_XFAIL}] + [{"argv": a} for a in _USAGE_ERRORS]
    rng = random.Random(seed)
    while len(cases) < count:
        cases.append(_draw(rng))
    return cases


def _outcome(case: dict) -> dict:
    """Run one case in the current directory, which it leaves empty; its digest and exit code."""
    for name, text in case.get("inputs", {}).items():
        Path(name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(case["argv"]))
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
        except Exception as e:  # noqa: BLE001 - a run of the script would exit 1 with a traceback
            code = f"uncaught {type(e).__name__}: {e}"
    written = []
    for path in sorted(Path(".").iterdir()):
        if path.name not in case.get("inputs", {}):
            written.append([path.name, hashlib.sha256(path.read_bytes()).hexdigest()])
        path.unlink()
    notes = [f"{w.category.__name__}: {w.message}" for w in seen]  # no file paths
    blob = json.dumps([code, out.getvalue(), err.getvalue(), notes, written])
    return {"sha256": hashlib.sha256(blob.encode()).hexdigest(), "exit": str(code)}


def probe(cases: list[dict]) -> list[dict]:
    """Each case with its outcome, run in a fresh empty directory at a fixed
    terminal width (argparse wraps its usage lines to it)."""
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            return [dict(case, **_outcome(case)) for case in cases]
        finally:
            os.chdir(old_cwd)
            if old_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old_columns


def record(results: list[dict]) -> dict:
    return {"seed": SEED, "count": len(results),
            "python": "%d.%d" % sys.version_info[:2],
            "exit_counts": dict(sorted(collections.Counter(r["exit"] for r in results).items())),
            "cases": results}


if __name__ == "__main__":  # one line per case, so a diff names the argv that moved
    rec = record(probe(corpus()))
    head = json.dumps({k: v for k, v in rec.items() if k != "cases"}, indent=1)
    cases = ",\n".join("  " + json.dumps(c) for c in rec["cases"])
    RECORD.write_text(head[:-2] + ',\n "cases": [\n' + cases + "\n ]\n}\n")
    print(f"wrote {RECORD.name}")
