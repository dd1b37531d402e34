"""Command-line front end.

Reads a point cloud (CSV, one point per row) or a JSON job description,
fits the minimum-volume enclosing sublevel set, and writes a JSON report
with the polynomial, volume, KKT certificate, inclusion audit, and (for
d = 2) a comparison against the independent ellipsoid oracle, with the
oracle's certified duality gap.

JSON input is either {"points": [[...], ...]} or
{"semialgebraic": {"inequalities": [{"2,0": 1.0, ...}, ...],
                   "box": [[lo, hi], ...]}}
where inequality keys are comma-separated exponent strings and each map
is one polynomial constraint w(x) >= 0.

Exit codes: 0 success, 2 input/parse error, 3 infeasible or degenerate
geometry, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import integrals
from .centering import solve_min_volume_centered
from .certificate import build_certificate
from .constraints import (ConstraintSet, KDescription, inclusion_check,
                          to_constraints)
from .errors import (CertificateError, ConvergenceError, DegenerateInputError,
                     EmptySetError, NotInConeError)
from .oracle import mvee_symmetric
from .polynomials import _format_key, _q_matrix_from_coeffs, positivity_floor
from .solver import solve_min_volume

__all__ = ["build_parser", "load_description", "run", "main", "emit_contours"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_CONVERGENCE = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homfit",
        description="Fit the minimum-volume enclosing sublevel set "
                    "{x : g(x - a) <= 1} of a homogeneous polynomial.",
    )
    parser.add_argument("input", help="points CSV (one point per row) or JSON job file")
    parser.add_argument("--degree", type=int, default=2, help="even degree of g (default 2)")
    parser.add_argument("--mode", choices=("p0", "p"), default="p0",
                        help="p0: center fixed at origin; p: optimize the center "
                             "jointly with g")
    parser.add_argument("--budget", type=int, default=2000,
                        help="sample budget for semialgebraic sets (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="KKT tolerance in (0, 1) (default 1e-8); near "
                             "1e-15 the residual is rounding noise, and whether "
                             "the solve exits 0 or 4 depends on its path")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--contours", type=int, default=None, metavar="N",
                        help="also write the level-1 boundary at resolution N "
                             "(n=2: polyline CSV; n=3: triangle-soup CSV)")
    return parser


def load_description(path):
    """Parse the input file into K: a ConstraintSet for CSV or JSON
    'points', a KDescription for JSON 'semialgebraic'.  Raises ValueError
    on anything malformed.
    """
    p = Path(path)
    if not p.exists():
        raise ValueError(f"input file not found: {path}")
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if p.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("JSON input must be an object")
        if "points" in payload:
            try:
                return ConstraintSet(payload["points"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad point list: {exc}") from exc
        if "semialgebraic" in payload:
            semi = payload["semialgebraic"]
            if not isinstance(semi, dict) or "inequalities" not in semi or "box" not in semi:
                raise ValueError("semialgebraic input needs 'inequalities' and 'box'")
            try:
                return KDescription(semi["inequalities"], semi["box"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad semialgebraic description: {exc}") from exc
        raise ValueError("JSON input needs 'points' or 'semialgebraic'")
    if text.strip():    # numpy's C parser; the cell loop names what it rejects
        try:
            values = np.loadtxt(text.splitlines(), delimiter=",", ndmin=2,
                                comments=None)
        except ValueError:
            pass
        else:
            return ConstraintSet(values)
    lines = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        cells = [c.strip() for c in row if c.strip()]
        if cells:
            lines.append((lineno, cells))
    try:
        values = np.array([c for _, cells in lines for c in cells], dtype=float)
    except ValueError:
        for lineno, cells in lines:     # name the first line that fails
            try:
                np.array(cells, dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    if not lines:
        raise ValueError(f"{path}: no points found")
    width = len(lines[0][1])
    if any(len(cells) != width for _, cells in lines):
        raise ValueError(f"{path}: rows have inconsistent dimension")
    return ConstraintSet(values.reshape(len(lines), width))


def _check_contour_dimension(n):
    if n not in (2, 3):
        raise ValueError(f"contours are only emitted for n in (2, 3), not n={n}")


def emit_contours(g, center, resolution, path):
    """Write the level-1 boundary {g(x - center) = 1} to a CSV file.

    n = 2: closed polyline, rows 'x,y'.  n = 3: triangle soup, one row of
    nine floats per triangle.  Other dimensions raise ValueError.
    """
    if resolution < 3:
        raise ValueError("contour resolution must be >= 3")
    _check_contour_dimension(g.n)
    center = np.zeros(g.n) if center is None else np.asarray(center, dtype=float)
    d = g.degree
    floor = positivity_floor(g)

    def radii(units):
        vals = g(units)
        if float(np.min(vals)) <= floor:
            raise NotInConeError("level set is unbounded in some direction")
        return vals ** (-1.0 / d)

    if g.n == 2:
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        units = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = center + radii(units)[:, None] * units
        header, rows = "x,y", np.vstack([pts, pts[:1]])     # close the loop
    else:
        bands = resolution
        lons = 2 * resolution
        theta = np.pi * np.arange(bands + 1) / bands
        phi = 2.0 * np.pi * np.arange(lons) / lons
        st, ct = np.sin(theta), np.cos(theta)
        units = np.stack([
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.outer(ct, np.ones(lons)),
        ], axis=-1)                               # (bands+1, lons, 3)
        flat = units.reshape(-1, 3)
        norms = np.linalg.norm(flat, axis=1, keepdims=True)
        flat = flat / np.clip(norms, 1e-15, None)
        verts = (center + radii(flat)[:, None] * flat).reshape(bands + 1, lons, 3)
        # cell (i, j) gives triangles (a, c, b) and (b, c, e); the first
        # collapses to the pole in the top row, the second in the bottom row
        i, j = np.indices((bands, lons))
        jn = (j + 1) % lons
        a, b = verts[i, j], verts[i, jn]
        c, e = verts[i + 1, j], verts[i + 1, jn]
        tris = np.stack([np.concatenate([a, c, b], axis=-1),
                         np.concatenate([b, c, e], axis=-1)], axis=2)
        header = "x1,y1,z1,x2,y2,z2,x3,y3,z3"
        rows = tris[np.stack([i > 0, i < bands - 1], axis=2)]
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.12g", delimiter=",", newline="\r\n",
                   header=header, comments="")


def _report_payload(cs, mode, degree, report, center, cert, audit):
    g = report.g_star
    quad = report.moment_data.quadrature_info
    payload = {
        "mode": mode,
        "degree": degree,
        "n": g.n,
        "num_constraint_points": len(cs),
        "provenance": cs.provenance,
        "basis": [_format_key(ix) for ix in g.basis],
        "coefficients": {_format_key(ix): float(c)
                         for ix, c in zip(g.basis, g.coeff_vector)},
        "center": [float(v) for v in center],
        "objective": report.objective,
        "volume": report.volume,
        "kkt_residual": report.kkt_residual,
        "iterations": report.iterations,
        "barrier_stages": report.stages,
        "certificate": cert.as_dict() if cert is not None else None,
        "inclusion": {
            "max_violation": audit.max_violation,
            "witness": [float(v) for v in audit.witness],
        },
        "quadrature": {
            "points": quad.get("points"),
            "converged": quad.get("converged"),
            "last_delta": quad.get("last_delta"),
            "tolerance": integrals.TOLERANCE,
        },
        "oracle": None,
    }
    if degree == 2 and mode == "p0":
        try:
            ell = mvee_symmetric(cs.points)
            Qg = _q_matrix_from_coeffs(g)
            payload["oracle"] = {
                "volume": ell.volume,
                "volume_rel_gap": abs(ell.volume - report.volume)
                                   / max(abs(ell.volume), 1e-300),
                "q_matrix": [[float(v) for v in row] for row in ell.Q],
                "max_q_coeff_gap": float(np.max(np.abs(ell.Q - Qg))),
                "iterations": ell.iterations,
                "gap": ell.gap,
            }
        except (DegenerateInputError, ConvergenceError) as exc:
            payload["oracle"] = {"error": str(exc)}
    return payload


def run(args):
    """Execute the job of a parsed build_parser() namespace; returns the
    process exit code.

    The JSON report goes to args.out or stdout; contour geometry (when
    requested) goes next to the report as '<out stem>_contours.csv', or
    'homfit_contours.csv' in the working directory when no --out is set.
    """
    try:
        if args.degree < 2 or args.degree % 2:
            raise ValueError(f"--degree must be even and >= 2, got {args.degree}")
        if args.budget < 1:
            raise ValueError("--budget must be >= 1")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if not (0 < args.tol < 1):
            raise ValueError("--tol must be in (0, 1)")
        if args.contours is not None and args.contours < 3:
            raise ValueError("--contours must be >= 3")
        if args.out:
            out = Path(args.out)
            if out.is_dir():
                raise ValueError(f"--out {args.out} is a directory")
            if not out.parent.is_dir():
                raise ValueError(f"--out directory {out.parent} does not exist")
        k = load_description(args.input)
        if args.contours is not None:
            _check_contour_dimension(k.n)
    except ValueError as exc:
        _emit_error("parse", str(exc))
        return EXIT_PARSE

    try:
        cs = to_constraints(k, budget=args.budget, seed=args.seed)
        if args.mode == "p":
            centered = solve_min_volume_centered(cs, args.degree, args.tol)
            report, center = centered.inner, centered.center
        else:
            report = solve_min_volume(cs, args.degree, args.tol)
            center = np.zeros(k.n)
        try:
            cert = build_certificate(report, cs.shifted(center))
        except CertificateError:
            cert = None
        audit = inclusion_check(report.g_star, center, k,
                                audit_budget=args.budget, seed=args.seed + 1)
        payload = _report_payload(cs, args.mode, args.degree, report, center,
                                  cert, audit)
        if args.mode == "p":
            payload["outer"] = {
                "iterations": centered.outer_iterations,
                "joint_stages": centered.meta["joint_stages"],
                "center_stationarity": centered.meta["center_stationarity"],
            }
    except (EmptySetError, DegenerateInputError) as exc:
        _emit_error("geometry", str(exc))
        return EXIT_GEOMETRY
    except (ConvergenceError, NotInConeError) as exc:
        _emit_error("convergence", str(exc))
        return EXIT_CONVERGENCE

    if args.contours is not None:
        try:
            contour_path = (str(Path(args.out).with_suffix("")) + "_contours.csv"
                            if args.out else "homfit_contours.csv")
            emit_contours(report.g_star, center, args.contours, contour_path)
            payload["contours_path"] = contour_path
        except NotInConeError as exc:
            _emit_error("convergence", str(exc))
            return EXIT_CONVERGENCE

    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _emit_error(kind, message):
    print(json.dumps({"error": {"type": kind, "message": message}}),
          file=sys.stderr)


def main(argv=None):
    return run(build_parser().parse_args(argv))

