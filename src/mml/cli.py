"""Command-line front end for the identity verifier.

Subcommands: verify-mcshane, verify-margulis, census, sweep.  Exit code
0 means every requested check passed, 1 invalid input, 2 the certified
tail could not be brought below tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import identity_engine as engine
from . import representation as reprs
from . import torus_curves
from .errors import InvalidCoords, MMLError, NonConvergence, NotHyperbolic

DEFAULT_SEED = 20150831


def _finite_floats(values, what: str) -> list[float]:
    """values as finite floats; InvalidCoords names `what` otherwise."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as e:
        raise InvalidCoords(f"{what}: not a number ({e})") from e
    if not all(math.isfinite(v) for v in out):
        raise InvalidCoords(f"{what}: values must be finite, got {out}")
    return out


def _parse_coords(text: str) -> reprs.TraceCoords:
    parts = _finite_floats(text.split(","), "--coords")
    if len(parts) != 3:
        raise InvalidCoords("--coords wants x,y,z")
    return reprs.TraceCoords(*parts)


def _load_spec(path: str) -> tuple[reprs.TraceCoords, reprs.DeformationSpec | None]:
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
    deform = None
    d = data.get("deformation")
    if d is not None:
        kind = d.get("kind", "zero")
        h = float(d.get("h", reprs.DEFAULT_PATH_STEP))
        if kind == "zero":
            deform = reprs.DeformationSpec.zero()
        elif kind == "path":
            coeffs = d.get("path_coeffs", [1.0, 1.0, 1.0])
            if len(coeffs) != 3:
                raise InvalidCoords(f"spec {path}: path_coeffs wants 3 entries")
            deform = reprs.DeformationSpec.linear_path(coords, tuple(coeffs), h=h)
        elif kind == "tangent":
            mats = d.get("tangent_matrices", {})
            deform = reprs.DeformationSpec(
                kind="tangent",
                a_eps=np.asarray(mats.get("A1", np.zeros((2, 2))), dtype=float),
                b_eps=np.asarray(mats.get("B1", np.zeros((2, 2))), dtype=float))
        else:
            raise InvalidCoords(f"spec {path}: unknown deformation kind {kind!r}")
    return coords, deform


def _build(args, need_deform: bool) -> reprs.HoledTorusRep:
    if args.spec:
        coords, deform = _load_spec(args.spec)
    elif args.coords:
        coords = _parse_coords(args.coords)
        deform = None
    else:
        raise InvalidCoords("either --coords or --spec is required")
    rep = reprs.build_rep(coords)
    if deform is None and need_deform:
        kind = getattr(args, "deform", "zero")
        if kind == "zero":
            deform = reprs.DeformationSpec.zero()
        elif kind == "path":
            direction = tuple(_finite_floats(args.path_dir.split(","), "--path-dir"))
            deform = reprs.DeformationSpec.linear_path(coords, direction, h=args.h)
        elif kind == "tangent":
            rng = np.random.default_rng(args.seed)
            deform = reprs.random_tangent(rep, rng)
        else:
            raise InvalidCoords(f"unknown --deform {kind!r}")
    if deform is not None:
        rep = reprs.attach_deformation(rep, deform)
    return rep


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: engine.SeriesReport, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = report.to_json() + "\n"
    else:
        d = report.to_dict()
        d.pop("bins")
        keys = list(d)
        lines = [",".join(keys),
                 ",".join("" if d[k] is None else f"{d[k]:.12g}" if isinstance(d[k], float)
                          else str(d[k]).lower() if isinstance(d[k], bool) else str(d[k])
                          for k in keys)]
        text = "\n".join(lines) + "\n"
    _write(text, out)


def _cmd_verify_mcshane(args) -> int:
    rep = _build(args, need_deform=False)
    c = rep.coords
    if not (min(c.x, c.y, c.z) > 2.0 and c.boundary_trace() <= -2.0 + engine.PARABOLIC_TOL):
        raise InvalidCoords(f"coordinates ({c.x}, {c.y}, {c.z}) need x, y, z > 2 and "
                            f"boundary trace {c.boundary_trace()} <= -2")
    report = engine.mcshane_sum(rep, tail_tolerance=args.tol, n_ceiling=args.n_ceiling)
    _emit_report(report, args.out, args.format)
    return 0 if report.passed else 2


def _cmd_verify_margulis(args) -> int:
    rep = _build(args, need_deform=True)
    check = reprs.validate_fuchsian(rep)
    if not check.passed:
        raise InvalidCoords(check.reason)
    report = engine.margulis_residual(rep, tail_tolerance=args.tol, n_ceiling=args.n_ceiling)
    _emit_report(report, args.out, args.format)
    return 0 if report.passed else 2


def _cmd_census(args) -> int:
    rep = _build(args, need_deform=False)
    curves = torus_curves.enumerate_up_to(rep, args.n_max + 1)
    bins = torus_curves.bin_curves(curves, args.n_max)
    m_hat = torus_curves.fit_bin_constant(bins)
    out = args.out or "census.csv"
    torus_curves.export_census(bins, out)
    with open(out, "a", newline="") as fh:
        csv.writer(fh).writerow(["m_hat", f"{m_hat:.12g}", "", "", "", ""])
    return 0


def _sweep_cell(coords: reprs.TraceCoords, seed: int, tol: float, n_ceiling: int) -> dict:
    rep = reprs.build_rep(coords)
    rng = np.random.default_rng(seed)
    rep = reprs.attach_deformation(rep, reprs.random_tangent(rep, rng))
    report = engine.margulis_residual(rep, tail_tolerance=tol, n_ceiling=n_ceiling)
    return {"coords": [coords.x, coords.y, coords.z], "seed": seed,
            "residual": report.residual, "tail_bound": report.tail_bound,
            "kappa_hat": report.kappa_hat, "h_threshold_n": report.h_threshold_n,
            "passed": report.passed}


def _cmd_sweep(args) -> int:
    rng = np.random.default_rng(args.seed)
    cells = []
    while len(cells) < args.cells:
        c = reprs.TraceCoords(*(rng.uniform(args.coord_min, args.coord_max, 3)))
        if c.in_domain():
            cells.append(c)
    jobs = [(c, args.seed + 1000 * i + j, args.tol, args.n_ceiling)
            for i, c in enumerate(cells) for j in range(args.deforms_per_cell)]
    results = [_sweep_cell(*a) for a in jobs]
    n_pass = sum(r["passed"] for r in results)
    payload = {"cells": results, "pass_count": n_pass, "total": len(results)}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if n_pass == len(results) else 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coords", help="trace coordinates x,y,z")
    p.add_argument("--spec", help="JSON representation spec file")
    p.add_argument("--tol", type=float, default=1e-6, help="tail tolerance")
    p.add_argument("--n-ceiling", type=int, default=200, help="bin ceiling")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mml",
                                 description="Verify length and Margulis-invariant "
                                             "identities on the one-holed torus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-mcshane", help="check the boundary-length series")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_mcshane)

    p = sub.add_parser("verify-margulis", help="check the differentiated series")
    _add_common(p)
    p.add_argument("--deform", choices=["path", "tangent", "zero"], default="zero")
    p.add_argument("--path-dir", default="1,1,1", help="coordinate direction for --deform path")
    p.add_argument("--h", type=float, default=reprs.DEFAULT_PATH_STEP,
                   help="finite-difference step for --deform path")
    p.set_defaults(fn=_cmd_verify_margulis)

    p = sub.add_parser("census", help="export the curve census as CSV")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=20, help="deepest bin to export")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("sweep", help="random-deformation grid of verify-margulis runs")
    _add_common(p)
    p.add_argument("--cells", type=int, default=5)
    p.add_argument("--deforms-per-cell", type=int, default=20)
    p.add_argument("--coord-min", type=float, default=3.5)
    p.add_argument("--coord-max", type=float, default=6.0)
    p.set_defaults(fn=_cmd_sweep)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.tol <= 0 or args.n_ceiling < 1:
        print("error: --tol must be > 0 and --n-ceiling >= 1", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except NonConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (InvalidCoords, NotHyperbolic, MMLError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
