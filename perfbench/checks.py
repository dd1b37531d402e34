"""Output checks on `homfit` JSON reports.

`check_report` returns the failed checks of one job as (kind, detail)
pairs, empty when the job passes.  The thresholds are the report's own
contract: the quadrature converged, the certificate identities hold to
1e-6, native points are enclosed, the d = 2 ellipsoid oracle agrees, and
the fitted volume matches an independent reference where one exists.
"""

from __future__ import annotations

import math

TOL = 1e-6


def certificate_errors(cert):
    """Relative certificate residuals: moment residual / y0, relative mass
    error and level residual.  y0 = mass_expected * d / n."""
    y0 = cert["mass_expected"] * cert["degree"] / cert["n"]
    return {
        "resid_rel": cert["moment_residual"] / y0,
        "mass_err": abs(cert["mass"] - cert["mass_expected"]) / cert["mass_expected"],
        "level": cert["level_residual"],
    }


def check_report(job, code, report):
    """Failed checks of one job, as (kind, detail) pairs.

    `job` is a workload job dict, `code` the CLI exit code and `report`
    the parsed JSON report (None when none was written).
    """
    if code != 0:
        return [("exit", f"exit code {code}")]
    if report is None:
        return [("report", "no report written")]
    failures = []
    if report["quadrature"]["converged"] is not True:
        failures.append(("quadrature", "did not converge"))
    cert = report["certificate"]
    if cert is None:
        failures.append(("certificate", "missing"))
    else:
        for key, value in certificate_errors(cert).items():
            if not value <= TOL:          # also catches NaN
                failures.append(("certificate", f"{key} {value:.3e}"))
    violation = report["inclusion"]["max_violation"]
    if job["native"] and not violation <= TOL:
        failures.append(("inclusion", f"violation {violation:.3e}"))
    oracle = report["oracle"]
    if oracle is not None:
        if "error" in oracle:
            failures.append(("oracle", oracle["error"]))
        elif report["degree"] == 2 and not oracle["volume_rel_gap"] <= TOL:
            failures.append(("oracle", f"volume gap {oracle['volume_rel_gap']:.3e}"))
    ref = job.get("reference")
    if ref is not None:
        value, rel = ref
        gap = abs(report["volume"] - value) / value
        if not (math.isfinite(gap) and gap <= rel):
            failures.append(("reference", f"volume {report['volume']!r} vs "
                                          f"{value!r}, rel gap {gap:.3e}"))
    return failures


# Kinds that make an answer wrong rather than uncertified or refused: a
# job that exits 0 without a report, or a volume an independent reference
# contradicts.  A nonzero exit code is the program declining to answer.
WRONG_ANSWER = {"report", "reference"}
