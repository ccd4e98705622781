"""Exception hierarchy shared across the package."""


class KorobovError(Exception):
    """Base class for all package-specific failures."""


class CertificateError(KorobovError):
    """A numerical certificate cannot support the requested answer: a series
    that cannot be certified, or a certified interval that cannot decide."""


class SummationCapError(CertificateError):
    """A one-dimensional series could not be certified below the requested
    tolerance within the hard cap on summed terms.

    Raised instead of returning a silently inaccurate value; signals
    pathological parameters (omega very close to 1, tiny decay weights).
    """


class CapExceededError(KorobovError):
    """An explicit size cap was exceeded (search space, pair count,
    enumeration work, or a prime scan that found no feasible modulus below
    its cap)."""


class OracleInfeasibleError(CapExceededError):
    """The dual-lattice enumeration region is too large for the oracle."""
