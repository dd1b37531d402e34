"""Tests of the benchmark itself: span arithmetic, output checks, metric
names, and the seeded generator.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from homfit import cli  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, "job"]


def test_self_time_of_nested_spans():
    trace = [
        span("cli.main", 0.0, 10.0),
        span("solver.solve_min_volume", 1.0, 4.0, parent=0),
        span("integrals.moment_vector", 2.0, 3.5, parent=1),
        span("certificate.build_certificate", 5.0, 9.0, parent=0),
        span("integrals.moment_vector", 6.0, 7.0, parent=3),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 1.5, 1.5, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children that overlap or stick out cover only the parent's interval
    trace = [span("a.f", 0.0, 4.0), span("b.g", 1.0, 3.0, parent=0),
             span("b.h", 2.0, 5.0, parent=0)]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def test_self_times_add_up_to_the_roots():
    trace = [span("cli.main", 0.0, 7.0), span("x.f", 0.5, 6.0, parent=0),
             span("y.g", 1.0, 2.0, parent=1), span("y.g", 3.0, 5.5, parent=1),
             span("z.h", 3.5, 4.0, parent=3), span("cli.main", 8.0, 9.0)]
    assert sum(spans.self_times(trace)) == pytest.approx(8.0)


@pytest.fixture(scope="module")
def disk_report(tmp_path_factory):
    """A real report: eight points on the unit circle, d = 2."""
    tmp = tmp_path_factory.mktemp("disk")
    pts = tmp / "disk8.csv"
    c = 0.5 ** 0.5
    pts.write_text("1,0\n0,1\n-1,0\n0,-1\n"
                   f"{c},{c}\n{-c},{c}\n{c},{-c}\n{-c},{-c}\n")
    out = tmp / "report.json"
    assert cli.main([str(pts), "--degree", "2", "--out", str(out)]) == 0
    return json.loads(out.read_text())


DISK_JOB = {"name": "disk8", "native": True, "reference": [3.141592653589793, 1e-6]}


def kinds(report, code=0, job=DISK_JOB):
    return {kind for kind, _ in checks.check_report(job, code, report)}


def test_good_report_passes(disk_report):
    assert checks.check_report(DISK_JOB, 0, disk_report) == []


def test_checks_flag_doctored_reports(disk_report):
    cert = checks.certificate_errors(disk_report["certificate"])
    y0 = disk_report["certificate"]["moment_residual"] / cert["resid_rel"]

    bad = copy.deepcopy(disk_report)
    bad["certificate"]["moment_residual"] = 1e-3 * y0
    assert kinds(bad) == {"certificate"}

    bad = copy.deepcopy(disk_report)
    bad["certificate"]["mass"] *= 1.0 + 1e-3
    assert kinds(bad) == {"certificate"}

    bad = copy.deepcopy(disk_report)
    bad["certificate"] = None
    assert kinds(bad) == {"certificate"}

    bad = copy.deepcopy(disk_report)
    bad["oracle"] = {"error": "ellipsoid gap 6.7e-06 still above 1.0e-09"}
    assert kinds(bad) == {"oracle"}

    bad = copy.deepcopy(disk_report)
    bad["quadrature"]["converged"] = False
    assert kinds(bad) == {"quadrature"}

    bad = copy.deepcopy(disk_report)
    bad["inclusion"]["max_violation"] = 1e-4
    assert kinds(bad) == {"inclusion"}
    assert kinds(bad, job=dict(DISK_JOB, native=False)) == set()

    bad = copy.deepcopy(disk_report)
    bad["volume"] *= 1.0 + 1e-3
    assert "reference" in kinds(bad)

    assert kinds(disk_report, code=4) == {"exit"}
    assert kinds(None) == {"report"}


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    declared = run.declared_units("end_to_end")
    one_pass = {"suite_s": 1.0, "peak_rss_mb": 80.0,
                "jobs": [{"seconds": 0.4}, {"seconds": 0.6}]}
    assert set(run.end_to_end([one_pass], 0.5)) == set(declared)
    assert declared == {"suite_s": "s", "job_s_max": "s", "peak_rss_mb": "MiB",
                        "setup_s": "s"}

    tracer = spans.Tracer()
    tracer.install()
    tracer.job = "disk8"
    pts = tmp_path / "square8.csv"
    pts.write_text("1,0\n0,1\n-1,0\n0,-1\n0.6,0.8\n-0.6,0.8\n0.6,-0.8\n-0.6,-0.8\n")
    out = pts.with_suffix(".json")
    assert cli.main([str(pts), "--out", str(out)]) == 0
    traced = {"suite_s": tracer.spans[0][2] - tracer.spans[0][1],
              "layers": tracer.summarize(),
              "jobs": [{"report": json.loads(out.read_text())}]}
    metrics = run.per_layer([traced], [dict(traced, suite_s=traced["suite_s"] / 2)])
    assert set(metrics) == set(run.declared_units("per_layer"))
    assert metrics["solver.solves"] == 1
    assert metrics["integrals.calls"] > 0      # calls between modules are traced
    assert metrics["oracle.failures"] == 0
    assert metrics["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)


def test_generator_is_seeded(tmp_path):
    a = workloads.build("planar", 3, tmp_path / "a")
    b = workloads.build("planar", 3, tmp_path / "b")
    c = workloads.build("planar", 4, tmp_path / "c")
    assert a == b
    for name in ("star.csv", "cloud2.csv"):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        assert (tmp_path / "a" / name).read_text() != (tmp_path / "c" / name).read_text()
    d = workloads.build("planar", workloads.DEFAULT_SEED, tmp_path / "d")
    assert d == a
    rows = sorted((tmp_path / "d" / "star.csv").read_text().splitlines())
    assert rows == sorted((tmp_path / "c" / "star.csv").read_text().splitlines())
    listed = {w["name"] for w in
              json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert listed == set(workloads.WORKLOADS) - {"region"}
