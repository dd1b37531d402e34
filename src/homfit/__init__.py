"""Minimum-volume enclosing sublevel sets of homogeneous polynomials.

Given a compact set K in R^n (finite points, or a semialgebraic
description), find the homogeneous polynomial g of a chosen even degree d
whose sublevel set {x : g(x - a) <= 1} contains K with the least Lebesgue
volume.  For d = 2 this is the symmetric Loewner-John ellipsoid; higher
degrees trade convexity of the enclosure for a tighter fit.

The volume of {g <= 1} is proportional to Integral exp(-g) dx, which is
strictly convex in the coefficients of g, so the fixed-center problem is
a convex program with a unique optimum characterized by a finite set of
contact points; see the solver and certificate modules.  The checks
that are independent of the solver live in homfit.verify, which this
package does not import.
"""

from .certificate import (KktCertificate, build_certificate,
                          caratheodory_reduce)
from .centering import (CenteredSolveReport, rho_of_center,
                        solve_min_volume_centered)
from .constraints import (ConstraintSet, InclusionAudit, KDescription,
                          inclusion_check, to_constraints)
from .errors import (CertificateError, ConvergenceError, DegenerateInputError,
                     EmptySetError, HomfitError, InfeasibleError,
                     NotInConeError, ReductionError)
from .integrals import (MomentVector, integral_exp, moment, moment_vector,
                        volume_sublevel)
from .oracle import EllipsoidOracleResult, mvee_symmetric
from .polynomials import (BasisEnumeration, HomogeneousPoly, basis_for,
                          compose_linear, min_on_sphere)
from .solver import (SolveReport, SolverConfig, initial_guess, kkt_residual,
                     objective_grad_hess, solve_min_volume)

__version__ = "0.1.0"

__all__ = [
    "BasisEnumeration", "CenteredSolveReport", "CertificateError",
    "ConstraintSet", "ConvergenceError", "DegenerateInputError",
    "EllipsoidOracleResult", "EmptySetError", "HomfitError",
    "HomogeneousPoly", "InclusionAudit", "InfeasibleError", "KDescription",
    "KktCertificate", "MomentVector", "NotInConeError", "ReductionError",
    "SolveReport", "SolverConfig", "basis_for", "build_certificate",
    "caratheodory_reduce", "compose_linear", "inclusion_check",
    "initial_guess", "integral_exp", "kkt_residual", "min_on_sphere",
    "moment", "moment_vector", "mvee_symmetric", "objective_grad_hess",
    "rho_of_center", "solve_min_volume", "solve_min_volume_centered",
    "to_constraints", "volume_sublevel",
]
