"""Exception types shared across the library."""


class HomfitError(Exception):
    """Base class for all library errors."""


class NotInConeError(HomfitError):
    """Polynomial is not strictly positive on the unit sphere, so exp(-g)
    is not integrable and its sublevel sets have infinite volume."""


class DegenerateInputError(HomfitError):
    """Input points span a proper subspace; the enclosing problem is
    unbounded in the flat directions."""


class EmptySetError(HomfitError):
    """Sampling found no point of the described set inside its box."""


class ConvergenceError(HomfitError):
    """Solver stopped without reaching the requested tolerance."""


class CertificateError(HomfitError):
    """A certificate could not be assembled from the solve report."""

