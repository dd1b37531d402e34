"""End-to-end CLI: inputs, report schema, exit codes, contours."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import philox
from homfit import HomogeneousPoly, NotInConeError, integral_exp
from homfit.cli import emit_contours, main

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


def test_collinear_exit3(tmp_path, capsys):
    p = tmp_path / "line.csv"
    write_csv(p, [[1, 1], [2, 2], [-3, -3]])
    code, payload, _ = run_job(tmp_path, [p])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "geometry"


def test_unreachable_tolerance_exit4(tmp_path, capsys):
    rng = philox(3)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    p = tmp_path / "cloud.csv"
    write_csv(p, rng.normal(size=(25, 2)) @ A)
    code, payload, _ = run_job(tmp_path, [p, "--tol", "1e-15"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "convergence"


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


def test_mode_p_recovers_center(tmp_path):
    p = tmp_path / "square.csv"
    write_csv(p, [[0, 0], [2, 0], [0, 2], [2, 2]])
    code, payload, _ = run_job(tmp_path, [p, "--mode", "p"])
    assert code == 0
    assert np.allclose(payload["center"], [1.0, 1.0], atol=1e-3)
    assert payload["volume"] == pytest.approx(2.0 * PI, rel=1e-4)
    assert payload["outer"]["inner_solves"] > 0
    assert payload["outer"]["joint_stages"] > 0
    assert payload["outer"]["center_stationarity"] <= 1e-5
    assert payload["outer"]["fallback"] is None


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
