"""End-to-end CLI: inputs, report schema, exit codes, contours."""

import ast
import csv
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homfit
from conftest import philox, symmetric_cloud
from homfit import (CertificateError, ConvergenceError, HomogeneousPoly,
                    NotInConeError, integral_exp, integrals)
from homfit.cli import emit_contours, load_description, main

PI = math.pi


def write_csv(path, pts):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in pts:
            w.writerow([f"{v:.17g}" for v in row])


@pytest.fixture
def disk_csv(tmp_path):
    p = tmp_path / "disk.csv"
    write_csv(p, [[1, 0], [0, 1], [-1, 0], [0, -1]])
    return p


def run_job(tmp_path, args):
    out = tmp_path / "report.json"
    code = main([*map(str, args), "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload, out


def test_four_point_report(disk_csv, tmp_path):
    code, payload, _ = run_job(tmp_path, [disk_csv, "--degree", "2", "--mode", "p0"])
    assert code == 0
    assert payload["basis"] == ["2,0", "1,1", "0,2"]
    coeffs = payload["coefficients"]
    assert coeffs["2,0"] == pytest.approx(1.0, abs=1e-6)
    assert coeffs["1,1"] == pytest.approx(0.0, abs=1e-6)
    assert coeffs["0,2"] == pytest.approx(1.0, abs=1e-6)
    assert payload["volume"] == pytest.approx(PI, rel=1e-6)
    assert payload["center"] == [0.0, 0.0]
    assert payload["mode"] == "p0" and payload["degree"] == 2
    assert payload["provenance"] == "native"

    cert = payload["certificate"]
    assert cert is not None
    assert abs(cert["mass"] - cert["mass_expected"]) <= 1e-6 * payload["objective"]
    assert payload["inclusion"]["max_violation"] <= 1e-9
    assert payload["quadrature"]["converged"] is True

    oracle = payload["oracle"]
    assert oracle["volume_rel_gap"] <= 1e-6
    assert oracle["max_q_coeff_gap"] <= 1e-5


def test_report_round_trip(disk_csv, tmp_path):
    code, payload, _ = run_job(tmp_path, [disk_csv])
    assert code == 0
    coeffs = {tuple(int(t) for t in key.split(",")): v
              for key, v in payload["coefficients"].items()}
    g = HomogeneousPoly(payload["n"], payload["degree"], coeffs)
    assert integral_exp(g) == pytest.approx(payload["objective"], rel=1e-9)


def test_odd_degree_exit2(disk_csv, tmp_path, capsys):
    code, payload, _ = run_job(tmp_path, [disk_csv, "--degree", "3"])
    assert code == 2
    assert payload is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "parse"
    assert "even" in err["error"]["message"]


@pytest.mark.parametrize("flags,message", [
    (["--budget", "0"], "--budget must be >= 1"),
    (["--tol", "2"], "--tol must be in (0, 1)"),
    (["--contours", "2"], "--contours must be >= 3"),
])
def test_flag_range_exit2(disk_csv, tmp_path, capsys, flags, message):
    code, payload, _ = run_job(tmp_path, [disk_csv, *flags])
    assert code == 2 and payload is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "parse", "message": message}


@pytest.mark.parametrize("case", ["inequalities_object", "negative_seed",
                                  "input_directory", "out_missing_directory",
                                  "out_directory", "points_3d", "box_overflow"])
def test_malformed_input_exit2(case, disk_csv, tmp_path, capsys, monkeypatch):
    disk = {"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}
    box = [[-1.5, 1.5], [-1.5, 1.5]]
    job, bad = tmp_path / "disk.json", tmp_path / "object.json"
    job.write_text(json.dumps({"semialgebraic": {"inequalities": [disk], "box": box}}))
    bad.write_text(json.dumps({"semialgebraic": {"inequalities": disk, "box": box}}))
    cube, wide = tmp_path / "cube.json", tmp_path / "wide.json"
    cube.write_text(json.dumps({"points": [[[1, 0]], [[0, 1]], [[-1, 0]]]}))
    wide.write_text(json.dumps({"semialgebraic": {
        "inequalities": [disk], "box": [[-1e308, 1e308], [-1.5, 1.5]]}}))
    args = {
        "inequalities_object": [bad],
        "points_3d": [cube],
        "box_overflow": [wide],
        "negative_seed": [job, "--seed", "-3"],
        "input_directory": [tmp_path],
        "out_missing_directory": [disk_csv, "--out", tmp_path / "missing" / "r.json"],
        "out_directory": [disk_csv, "--out", tmp_path],
    }[case]
    if case.startswith("out_"):
        # a bad --out fails before the input is even read
        def unread(path):
            raise AssertionError("input loaded despite a bad --out")
        monkeypatch.setattr("homfit.cli.load_description", unread)
    assert main(list(map(str, args))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "parse" and err["error"]["message"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_nonfinite_inequality_coefficient_exit2(value, tmp_path, capsys):
    # a NaN once exhausted the draws (exit 3), an infinity passed the audit
    # (exit 0): the boundary push dropped every row on its NaN gradient
    job = tmp_path / "disk.json"
    job.write_text('{"semialgebraic": {"inequalities": [{"0,0": %s, "2,0": -1, '
                   '"0,2": -1}], "box": [[-1.5, 1.5], [-1.5, 1.5]]}}' % value)
    assert main([str(job), "--budget", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "parse", "message": "bad semialgebraic description: "
                                    "inequality coefficients must be finite"}


def test_settings_are_module_constants(disk_csv, tmp_path):
    assert "SolverConfig" not in homfit.__all__
    assert not hasattr(homfit, "SolverConfig")
    assert not hasattr(homfit, "QuadratureSpec")
    for name in homfit.__all__:
        obj = getattr(homfit, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"spec", "angular_budget", "ball_tol", "scale",
                                 "config", "activity_tol"}, name
    code, payload, _ = run_job(tmp_path, [disk_csv])
    assert code == 0
    assert payload["quadrature"]["tolerance"] == integrals.TOLERANCE


def test_semialgebraic_disk(tmp_path):
    job = tmp_path / "disk.json"
    job.write_text(json.dumps({
        "semialgebraic": {
            "inequalities": [{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
        }
    }))
    code, payload, _ = run_job(tmp_path, [job, "--budget", "2000", "--seed", "0"])
    assert code == 0
    assert payload["provenance"] == "semialgebraic"
    assert payload["volume"] == pytest.approx(PI, rel=1e-3)
    assert payload["inclusion"]["max_violation"] <= 1e-6
    oracle = payload["oracle"]
    assert "error" not in oracle
    assert oracle["volume_rel_gap"] <= 1e-6
    assert 0.0 <= oracle["gap"] <= 1e-9


def test_parse_failures(tmp_path, capsys):
    assert main([str(tmp_path / "missing.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\nfoo,1\n")
    assert main([str(bad)]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n1,2,3\n")
    assert main([str(ragged)]) == 2
    badjson = tmp_path / "bad.json"
    badjson.write_text("{not json")
    assert main([str(badjson)]) == 2
    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"samples": [[1, 0]]}))
    assert main([str(nokey)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text,message", [
    ("1,0\nfoo,1\n", "{path}:2: non-numeric cell"),
    # a bad cell wins over rows of unequal width, even after them
    ("1,2\n1,2,3\n\nfoo,1\n", "{path}:4: non-numeric cell"),
    # quoting keeps a comma inside one cell
    ('"1,5",2\n3,4\n', "{path}:1: non-numeric cell"),
    ("", "{path}: no points found"),
    ("\n , \n,,\n", "{path}: no points found"),
    ("1,2\n1,2,3\n", "{path}: rows have inconsistent dimension"),
    ('"",1\n2,3\n', "{path}: rows have inconsistent dimension"),
    ("nan,1\n2,3\n", "points must be finite"),
], ids=["bad_cell", "bad_after_ragged", "quoted_comma", "empty", "blank_cells",
        "ragged", "empty_quoted", "nan"])
def test_csv_messages(tmp_path, text, message):
    path = tmp_path / "points.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_description(path)
    assert str(info.value) == message.format(path=path)


def test_csv_cells_skip_blanks_and_quotes(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text('\n"1.5", 2,,\n\n 3 ,"4"\r\n-1e-3,1_0\n')
    assert load_description(path).points.tolist() == [[1.5, 2.0], [3.0, 4.0],
                                                      [-1e-3, 10.0]]


def test_collinear_exit3(tmp_path, capsys):
    p = tmp_path / "line.csv"
    write_csv(p, [[1, 1], [2, 2], [-3, -3]])
    code, payload, _ = run_job(tmp_path, [p])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "geometry"


@pytest.mark.parametrize("points,flags", [
    ([[1, 2], [3, 4]], ["--degree", "4"]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], ["--degree", "6"]),
    ([[1, 2], [3, 4], [-1, 0.5]], ["--degree", "6", "--mode", "p"]),
], ids=["two_d4", "n3_four_d6", "three_d6_centered"])
def test_vanishing_half_degree_form_exit3(points, flags, tmp_path, capsys):
    # a form of degree d/2 vanishes at every point: no enclosure has
    # minimum volume, which is a geometry error, not a spent Newton budget
    p = tmp_path / "few.csv"
    write_csv(p, points)
    code, payload, _ = run_job(tmp_path, [p, *flags])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "geometry"
    assert "vanishes at every constraint point" in err["error"]["message"]


@pytest.mark.parametrize("points,degree", [
    ([[1, 2], [3, 4], [-1, 0.5]], 4),
    ([[1, 2], [3, 4], [-1, 0.5], [0.3, -1.2]], 4),
    ([[1, 2], [3, 4], [-1, 0.5], [0.3, -1.2], [2.2, -0.7]], 6),
], ids=["three_d4", "four_d4", "five_d6"])
def test_centered_fit_without_minimizer_fails(points, degree, tmp_path, capsys):
    # centered on a line through two of the points, a form of degree d/2
    # vanishes at every x_i - a, so the volume has no minimizer although
    # the rank check at the centroid passes: the fit must not answer
    p = tmp_path / "few.csv"
    write_csv(p, points)
    code, payload, _ = run_job(tmp_path, [p, "--degree", degree, "--mode", "p"])
    assert code != 0 and payload is None
    assert "error" in json.loads(capsys.readouterr().err)


def test_unreachable_tolerance_exit4(tmp_path, capsys):
    rng = philox(3)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    p = tmp_path / "cloud.csv"
    write_csv(p, rng.normal(size=(25, 2)) @ A)
    # the KKT residual of this cloud stalls near 1e-15, the rounding floor
    code, payload, _ = run_job(tmp_path, [p, "--tol", "1e-16"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "convergence"


def test_spatial_cloud_at_default_tolerances(tmp_path):
    p = tmp_path / "cloud3.csv"
    write_csv(p, symmetric_cloud(3, n=3, m=30))
    code, payload, _ = run_job(tmp_path, [p])
    assert code == 0
    assert payload["quadrature"]["converged"] is True
    assert payload["certificate"]["moment_residual"] <= 1e-6 * payload["objective"]


def test_import_does_not_load_scipy():
    # homfit needs numpy alone (test_no_module_imports_scipy); a
    # fixed-center solve, its certificate and a centered fit on native
    # points load neither numpy.random nor numpy.ma, whose first use costs
    # about 14 and 12 ms of the command's start-up
    src = str(Path(homfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    script = (
        "import sys, homfit\n"
        "cs = homfit.ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1]])\n"
        "homfit.build_certificate(homfit.solve_min_volume(cs, 2), cs)\n"
        "cs = homfit.ConstraintSet([[0.3, 0.1], [2.0, 0.4], [0.5, 1.9],\n"
        "                           [1.7, 2.2], [1.1, -0.8]])\n"
        "homfit.solve_min_volume_centered(cs, 2)\n"
        "print(sorted(m for m in sys.modules if m in ('numpy.random',\n"
        "             'numpy.ma') or m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    # numpy is the only run-time dependency: no import statement under
    # src/homfit names scipy, nor does a string argument such as
    # __import__("scipy") or import_module("scipy.optimize")
    for path in Path(homfit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                names = [str(node.args[0].value)]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def _python_m_homfit(*args):
    src = str(Path(homfit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "homfit", *map(str, args)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_python_m_homfit(disk_csv, tmp_path):
    ok = _python_m_homfit(disk_csv)
    assert ok.returncode == 0
    _, payload, _ = run_job(tmp_path, [disk_csv])
    assert json.loads(ok.stdout) == payload
    bad = _python_m_homfit(disk_csv, "--degree", "3")
    assert bad.returncode == 2 and bad.stdout == ""
    err = json.loads(bad.stderr)["error"]
    assert err["type"] == "parse" and "even" in err["message"]


def test_oracle_error_goes_into_the_report(disk_csv, tmp_path, monkeypatch):
    def fail(points):
        raise ConvergenceError("oracle did not converge")

    monkeypatch.setattr(homfit.cli, "mvee_symmetric", fail)
    code, payload, _ = run_job(tmp_path, [disk_csv])
    assert code == 0
    assert payload["oracle"] == {"error": "oracle did not converge"}
    assert payload["volume"] == pytest.approx(PI, rel=1e-6)


def test_certificate_error_reports_null(disk_csv, tmp_path, monkeypatch):
    def fail(report, cs):
        raise CertificateError("no certificate")

    monkeypatch.setattr(homfit.cli, "build_certificate", fail)
    code, payload, _ = run_job(tmp_path, [disk_csv])
    assert code == 0
    assert payload["certificate"] is None
    assert payload["volume"] == pytest.approx(PI, rel=1e-6)


def test_unbounded_contour_exits_4(disk_csv, tmp_path, capsys, monkeypatch):
    def fail(g, center, resolution, path):
        raise NotInConeError("level set is unbounded in some direction")

    monkeypatch.setattr(homfit.cli, "emit_contours", fail)
    code, payload, _ = run_job(tmp_path, [disk_csv, "--contours", "16"])
    assert code == 4 and payload is None
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "convergence", "message":
                            "level set is unbounded in some direction"}


def test_contours_circle_exact(tmp_path):
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    path = tmp_path / "circle.csv"
    emit_contours(g, None, 360, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y"]
    pts = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert pts.shape == (361, 2)                 # closed loop
    assert np.allclose(pts[0], pts[-1])
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12


def test_contours_via_cli(disk_csv, tmp_path):
    code, payload, out = run_job(tmp_path, [disk_csv, "--contours", "360"])
    assert code == 0
    with open(payload["contours_path"], newline="") as fh:
        rows = list(csv.reader(fh))
    pts = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert pts.shape == (361, 2)
    radii = np.linalg.norm(pts, axis=1)
    # the fitted polynomial is only as exact as the KKT tolerance
    assert np.max(np.abs(radii - 1.0)) < 1e-6


def test_contours_quartic(tmp_path):
    g = HomogeneousPoly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})
    path = tmp_path / "quartic.csv"
    emit_contours(g, None, 8, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pts = np.array([[float(a), float(b)] for a, b in rows])
    c = 2.0 ** -0.25
    for expected in ([1, 0], [0, 1], [-1, 0], [0, -1], [c, c]):
        gap = np.min(np.linalg.norm(pts - np.asarray(expected, dtype=float), axis=1))
        assert gap < 1e-12


def test_contours_3d_sphere(tmp_path):
    g = HomogeneousPoly(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    path = tmp_path / "sphere.csv"
    emit_contours(g, None, 6, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows[0]) == 9
    tris = np.array([[float(v) for v in row] for row in rows[1:]])
    assert tris.shape == (2 * 5 * 12, 9)
    verts = tris.reshape(-1, 3)
    assert np.max(np.abs(np.linalg.norm(verts, axis=1) - 1.0)) < 1e-9


def _soup_by_loop(g, center, bands, path):
    """The n = 3 contour file as first written: one csv row per triangle,
    cell by cell."""
    lons = 2 * bands
    theta = np.pi * np.arange(bands + 1) / bands
    phi = 2.0 * np.pi * np.arange(lons) / lons
    st, ct = np.sin(theta), np.cos(theta)
    flat = np.stack([np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)),
                     np.outer(ct, np.ones(lons))], axis=-1).reshape(-1, 3)
    flat = flat / np.clip(np.linalg.norm(flat, axis=1, keepdims=True), 1e-15, None)
    radii = g(flat) ** (-1.0 / g.degree)
    verts = (center + radii[:, None] * flat).reshape(bands + 1, lons, 3)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3"])
        for i in range(bands):
            for j in range(lons):
                jn = (j + 1) % lons
                a, b = verts[i, j], verts[i, jn]
                c, e = verts[i + 1, j], verts[i + 1, jn]
                if i > 0:
                    writer.writerow([f"{v:.12g}" for p in (a, c, b) for v in p])
                if i < bands - 1:
                    writer.writerow([f"{v:.12g}" for p in (b, c, e) for v in p])


@pytest.mark.parametrize("bands", [3, 7])
def test_contours_3d_match_the_cell_loop(tmp_path, bands):
    g = HomogeneousPoly(3, 4, {(4, 0, 0): 1.0, (0, 4, 0): 2.0, (0, 0, 4): 0.5,
                               (2, 2, 0): 0.3, (1, 1, 2): 0.1})
    center = np.array([0.3, -1.7, 2.5])
    emit_contours(g, center, bands, tmp_path / "soup.csv")
    _soup_by_loop(g, center, bands, tmp_path / "loop.csv")
    assert (tmp_path / "soup.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_contours_validation(tmp_path):
    g2 = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    with pytest.raises(ValueError):
        emit_contours(g2, None, 2, tmp_path / "x.csv")
    g4 = HomogeneousPoly(4, 2, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                                (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    with pytest.raises(ValueError):
        emit_contours(g4, None, 16, tmp_path / "x.csv")
    open_up = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    with pytest.raises(NotInConeError):
        emit_contours(open_up, None, 16, tmp_path / "x.csv")


def test_contours_wrong_dimension_fails_before_sampling(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran past the contour dimension check")

    for name in ("to_constraints", "solve_min_volume", "solve_min_volume_centered"):
        monkeypatch.setattr(homfit.cli, name, never)
    p = tmp_path / "cloud4.csv"
    write_csv(p, symmetric_cloud(5, n=4, m=20))
    for mode in ("p0", "p"):
        code, payload, _ = run_job(tmp_path, [p, "--mode", mode, "--contours", "10"])
        assert code == 2 and payload is None
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "parse" and "n=4" in err["error"]["message"]


def test_mode_p_recovers_center(tmp_path):
    p = tmp_path / "square.csv"
    write_csv(p, [[0, 0], [2, 0], [0, 2], [2, 2]])
    code, payload, _ = run_job(tmp_path, [p, "--mode", "p"])
    assert code == 0
    assert np.allclose(payload["center"], [1.0, 1.0], atol=1e-3)
    assert payload["volume"] == pytest.approx(2.0 * PI, rel=1e-4)
    assert payload["outer"]["joint_stages"] > 0
    assert payload["outer"]["center_stationarity"] <= 1e-5


def test_reports_are_reproducible(tmp_path):
    job = tmp_path / "disk.json"
    job.write_text(json.dumps({
        "semialgebraic": {
            "inequalities": [{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
        }
    }))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main([str(job), "--budget", "500", "--seed", "7", "--out", str(out1)]) == 0
    assert main([str(job), "--budget", "500", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
