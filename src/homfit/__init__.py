"""Minimum-volume enclosing sublevel sets of homogeneous polynomials.

Given a compact set K in R^n (finite points, or a semialgebraic
description), find the homogeneous polynomial g of a chosen even degree d
whose sublevel set {x : g(x - a) <= 1} contains K with the least Lebesgue
volume.  For d = 2 this is the symmetric Loewner-John ellipsoid; higher
degrees trade convexity of the enclosure for a tighter fit.

The volume of {g <= 1} is proportional to Integral exp(-g) dx, which is
strictly convex in the coefficients of g, so the fixed-center problem is
a convex program with a unique optimum characterized by a finite set of
contact points; see the solver and certificate modules.
"""

from .certificate import (KktCertificate, build_certificate,
                          caratheodory_reduce, contact_moment_matrix,
                          dball_contact_check, gaussian_moment_matrix)
from .centering import (CenteredSolveReport, rho_of_center,
                        solve_min_volume_centered)
from .constraints import (ConstraintSet, InclusionAudit, KDescription,
                          inclusion_check, to_constraints)
from .errors import (CertificateError, ConvergenceError, DegenerateInputError,
                     EmptySetError, HomfitError, InfeasibleError,
                     NotInConeError, ReductionError)
from .integrals import (CrosscheckResult, MomentVector, QuadratureSpec,
                        crosscheck_levelset_moment, integral_exp, moment,
                        moment_vector, volume_sublevel)
from .oracle import EllipsoidOracleResult, McVolume, mc_volume, mvee_symmetric
from .polynomials import (BasisEnumeration, HomogeneousPoly, MultiIndex,
                          basis_for, compose_linear, enumerate_basis,
                          min_on_sphere)
from .solver import (SolveReport, SolverConfig, initial_guess, kkt_residual,
                     objective_grad_hess, solve_min_volume)

__version__ = "0.1.0"

__all__ = [
    "BasisEnumeration", "CenteredSolveReport", "CertificateError",
    "ConstraintSet", "ConvergenceError", "CrosscheckResult",
    "DegenerateInputError", "EllipsoidOracleResult", "EmptySetError",
    "HomfitError", "HomogeneousPoly", "InclusionAudit", "InfeasibleError",
    "KDescription", "KktCertificate", "McVolume", "MomentVector",
    "MultiIndex", "NotInConeError", "QuadratureSpec",
    "ReductionError", "SolveReport", "SolverConfig", "basis_for",
    "build_certificate", "caratheodory_reduce", "compose_linear",
    "contact_moment_matrix", "crosscheck_levelset_moment",
    "dball_contact_check", "enumerate_basis",
    "gaussian_moment_matrix", "inclusion_check", "initial_guess",
    "integral_exp", "kkt_residual", "mc_volume", "min_on_sphere", "moment",
    "moment_vector", "mvee_symmetric", "objective_grad_hess", "rho_of_center",
    "solve_min_volume", "solve_min_volume_centered", "to_constraints",
    "volume_sublevel",
]
