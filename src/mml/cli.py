"""Command-line front end for the identity verifier.

Subcommands: verify-mcshane, verify-margulis, census, sweep.  Exit code
0 means every requested check passed, 1 invalid input (usage errors and
coordinates outside the domain included) or a float overflow, 2 the
certified tail could not be brought below tolerance.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import identity_engine as engine
from . import representation as reprs
from . import torus_curves
from .errors import InvalidCoords, MMLError, NonConvergence

DEFAULT_SEED = 20150831
SWEEP_DRAWS_PER_CELL = 10_000  # sweep gives up after this many coordinate draws per cell


def _finite_floats(values, what: str) -> list[float]:
    """values, JSON numbers, as finite floats; InvalidCoords names `what` otherwise."""
    try:
        values = list(values)
        out = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidCoords(f"{what}: not a number ({e})") from e
    if any(type(v) not in (int, float) for v in values):  # a str, or a bool (an int subclass)
        raise InvalidCoords(f"{what}: not a number: {values}")
    if not all(math.isfinite(v) for v in out):
        raise InvalidCoords(f"{what}: values must be finite, got {out}")
    return out


def _matrix(m, what: str) -> list[float] | None:
    """m, a 2x2 JSON matrix or None, as 4 finite floats row by row; InvalidCoords names `what`."""
    if m is None:
        return None
    if not isinstance(m, list):
        raise InvalidCoords(f"{what}: not a matrix of numbers: {m!r}")
    rows = [_finite_floats(row, what) for row in m]
    if [len(row) for row in rows] != [2, 2]:
        raise InvalidCoords(f"{what}: not a 2x2 matrix: {m!r}")
    return rows[0] + rows[1]


def _parse_coords(text: str) -> reprs.TraceCoords:
    parts = _finite_floats(map(float, text.split(",")), "--coords")
    if len(parts) != 3:
        raise InvalidCoords("--coords wants x,y,z")
    return reprs.TraceCoords(*parts)


def _load_spec(path: str) -> tuple[reprs.TraceCoords, object]:
    """The spec's coordinates and its deformation object, None when it has none."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidCoords(f"cannot read spec {path}: {e}") from e
    try:
        xyz = (data["x"], data["y"], data["z"])
    except (KeyError, TypeError) as e:
        raise InvalidCoords(f"spec {path}: bad coordinates ({e})") from e
    coords = reprs.TraceCoords(*_finite_floats(xyz, f"spec {path} coordinates"))
    return coords, data.get("deformation")


def _deformation(rep: reprs.HoledTorusRep, d, seed: int, name) -> reprs.DeformationSpec:
    """The deformation of rep that d, a spec's or the flags' deformation object, asks
    for; name(field) labels its fields in errors.  No tangent_matrices: random from seed."""
    kind = d.get("kind", "zero") if isinstance(d, dict) else None
    if kind == "zero":
        return reprs.DeformationSpec()
    if kind == "path":
        coeffs = _finite_floats(d.get("path_coeffs", [1.0, 1.0, 1.0]), name("path_coeffs"))
        if len(coeffs) != 3:
            raise InvalidCoords(f"{name('path_coeffs')}: wants 3 entries, got {len(coeffs)}")
        return reprs.DeformationSpec.linear_path(rep, tuple(coeffs))
    if kind == "tangent":
        mats = d.get("tangent_matrices")
        if mats is None:
            return reprs.random_tangent(rep, np.random.default_rng(seed))
        if isinstance(mats, dict):
            return reprs.DeformationSpec(*(_matrix(mats.get(k + "1"), name(f"eps part of {k}"))
                                           for k in "AB"))
    raise InvalidCoords(f"{name('deformation')}: not a zero, path or tangent deformation: {d!r}")


def _rep(coords: reprs.TraceCoords, d, seed: int, name=None) -> reprs.HoledTorusRep:
    """The rep at coords, deformed as the deformation object d asks (None: not
    deformed), through the domain gate; name(field) labels d's fields in errors."""
    rep = reprs.build_rep(coords)
    if d is not None:
        rep = reprs.attach_deformation(rep, _deformation(rep, d, seed, name))
    reprs.validate_fuchsian(rep)
    return rep


def _build(args) -> reprs.HoledTorusRep:
    """The rep of --spec or --coords.  census (no --seed) builds it undeformed; elsewhere,
    without a spec deformation, a command that has --deform takes the flags' one."""
    if args.spec is not None:
        coords, d = _load_spec(args.spec)
        name = lambda field: f"spec {args.spec} {field}"
    else:
        coords, d, name = _parse_coords(args.coords), None, None
    if "seed" not in args:  # census writes traces and lengths only
        return _rep(coords, None, 0)
    if d is None and "deform" in args:
        d = {"kind": args.deform, "path_coeffs": map(float, args.path_dir.split(","))}
        name = {"deformation": "--deform", "path_coeffs": "--path-dir"}.get
    return _rep(coords, d, args.seed, name)


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify(args, series) -> int:
    """Run series, mcshane_sum or margulis_residual, on the command's rep; write its report."""
    report = series(_build(args), tail_tolerance=args.tol, n_ceiling=args.n_ceiling)
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        d = {k: v for k, v in vars(report).items() if k != "bins"}
        keys = list(d)
        lines = [",".join(keys),
                 ",".join("" if d[k] is None else f"{d[k]:.12g}" if isinstance(d[k], float)
                          else str(d[k]).lower() if isinstance(d[k], bool) else str(d[k])
                          for k in keys)]
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0 if report.passed else 2


def _cmd_census(args) -> int:
    if args.n_max < 0:
        raise InvalidCoords(f"--n-max must be >= 0, got {args.n_max}")
    curves = torus_curves.enumerate_up_to(_build(args), args.n_max + 1)
    torus_curves.export_census(torus_curves.bin_curves(curves, args.n_max), args.out)
    return 0


def _sweep_cell(coords: reprs.TraceCoords, seed: int, tol: float, n_ceiling: int) -> dict:
    report = engine.margulis_residual(_rep(coords, {"kind": "tangent"}, seed),
                                      tail_tolerance=tol, n_ceiling=n_ceiling)
    return {"coords": [coords.x, coords.y, coords.z], "seed": seed,
            "residual": report.residual, "tail_bound": report.tail_bound,
            "kappa_hat": report.kappa_hat, "h_threshold_n": report.h_threshold_n,
            "passed": report.passed}


def _cmd_sweep(args) -> int:
    if args.cells < 1 or not 1 <= args.deforms_per_cell <= 1000:  # seeds seed + 1000 i + j
        raise InvalidCoords("--cells must be >= 1 and --deforms-per-cell in 1..1000")
    lo, hi = args.coord_min, args.coord_max
    # x, y, z <= 3 gives x^2 + y^2 + z^2 >= 3 (xyz)^(2/3) >= xyz (AM-GM), so a
    # boundary trace >= -2: the box [lo, hi]^3, lo <= hi, meets the domain iff hi > 3.
    if not (lo <= hi and hi > 3.0 and math.isfinite(hi - lo)):
        raise InvalidCoords(f"--coord-min {lo}, --coord-max {hi}: want finite min <= max, max > 3")
    rng = np.random.default_rng(args.seed)
    draws = SWEEP_DRAWS_PER_CELL * args.cells
    boxed = (reprs.TraceCoords(*rng.uniform(lo, hi, 3).tolist()) for _ in range(draws))
    cells = list(itertools.islice((c for c in boxed if c.in_domain()), args.cells))
    if len(cells) < args.cells:
        raise InvalidCoords(f"--coord-min {lo}, --coord-max {hi}: {len(cells)} of "
                            f"{args.cells} cells in the domain after {draws} draws")
    results = [_sweep_cell(c, args.seed + 1000 * i + j, args.tol, args.n_ceiling)
               for i, c in enumerate(cells) for j in range(args.deforms_per_cell)]
    n_pass = sum(r["passed"] for r in results)
    payload = {"cells": results, "pass_count": n_pass, "total": len(results)}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if n_pass == len(results) else 2


def _add_rep(p: argparse.ArgumentParser, seed: bool = True) -> None:
    rep = p.add_mutually_exclusive_group(required=True)
    rep.add_argument("--coords", help="trace coordinates x,y,z")
    rep.add_argument("--spec", help="JSON representation spec file")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of a random tangent")


def _add_series(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6,
                   help="tail tolerance, > 0 (a value starting with - needs the = form)")
    p.add_argument("--n-ceiling", type=int, default=200, help="bin ceiling")
    p.add_argument("--out", help="output path (default: stdout)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error, with exit 1 for invalid input: 2 is an uncertified tail."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    ap = _Parser(prog="mml", description="Verify length and Margulis-invariant "
                                         "identities on the one-holed torus.")
    # no prefix matching: an unknown flag such as --h is a usage error, not --help
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=functools.partial(_Parser, allow_abbrev=False))

    p = sub.add_parser("verify-mcshane", help="check the boundary-length series")
    _add_rep(p)
    _add_series(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=lambda args: _verify(args, engine.mcshane_sum))

    p = sub.add_parser("verify-margulis", help="check the differentiated series")
    _add_rep(p)
    _add_series(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--deform", choices=["path", "tangent", "zero"], default="zero")
    p.add_argument("--path-dir", default="1,1,1", help="coordinate direction for --deform path "
                   "(a value starting with - needs the = form: --path-dir=-3,1,2)")
    p.set_defaults(fn=lambda args: _verify(args, engine.margulis_residual))

    p = sub.add_parser("census", help="export the curve census as CSV")
    _add_rep(p, seed=False)
    p.add_argument("--n-max", type=int, default=20, help="deepest bin to export")
    p.add_argument("--out", default="census.csv", help="CSV path (default: census.csv)")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("sweep", help="random-deformation grid of verify-margulis runs")
    _add_series(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the cell coordinates and their tangents")
    p.add_argument("--cells", type=int, default=5)
    p.add_argument("--deforms-per-cell", type=int, default=20)
    p.add_argument("--coord-min", type=float, default=3.5)
    p.add_argument("--coord-max", type=float, default=6.0)
    p.set_defaults(fn=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and (not 0 < args.tol < math.inf or args.n_ceiling < 1):
            raise InvalidCoords("--tol must be > 0 and --n-ceiling >= 1")
        if "seed" in args and args.seed < 0:  # numpy's default_rng takes no negative seed
            raise InvalidCoords(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (MMLError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OverflowError as e:  # a path tangent or a commutator can still overflow
        print(f"error: float overflow: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
