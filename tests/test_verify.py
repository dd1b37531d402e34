"""The boundary of homfit.verify: it checks the solver's answers, so it
imports none of the modules that produce them, and none of them, nor the
package itself, imports it."""

from pathlib import Path

import homfit
from conftest import imported_names

PACKAGE = Path(homfit.__file__).parent


def test_verify_imports_neither_solver_certificate_nor_centering():
    imported = imported_names(PACKAGE / "verify.py")
    assert not imported & {"solver", "certificate", "centering"}


def test_no_other_module_imports_verify():
    others = sorted(p for p in PACKAGE.glob("*.py") if p.name != "verify.py")
    assert {p.stem for p in others} >= {"__init__", "cli", "solver", "certificate",
                                        "centering", "integrals", "oracle"}
    for path in others:
        assert "verify" not in imported_names(path), path.name
