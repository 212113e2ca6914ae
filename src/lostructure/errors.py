"""Shared exception types and report flags.

Every resource-limit or search-failure condition in the package raises one
of these, so callers can distinguish "the math says no" from "the budget
ran out".  Conditions that leave a usable result behind are reported as
string flags on the result object instead; the flag vocabulary lives here
so reports stay greppable.
"""


class LostructureError(Exception):
    """Base class for all package-specific errors."""


class AtomCapExceeded(LostructureError):
    """A discrete law grew past the configured atom budget."""


class EnumerationCapExceeded(LostructureError):
    """A lattice or image enumeration grew past the configured budget."""


class QuadratureFailure(LostructureError):
    """Adaptive quadrature could not reach the requested tolerance."""


class SandwichNotFound(LostructureError):
    """No certified progression sandwich within the dilation cap."""


class EmbeddingNotFound(LostructureError):
    """No certified proper embedding within the search budget."""


class UnsupportedRank(LostructureError):
    """Requested rank is outside the implemented range."""


class InvalidWindow(LostructureError):
    """Requested truncation index violates the admissible window."""


class InvalidSchedule(LostructureError):
    """Asymptotic schedule parameters admit no valid rank."""


class TrivialCase(LostructureError):
    """The symmetrized law has no mass away from zero; recovery carries
    no information and is refused."""


# Flags attached to reports.  Flag presence never silently alters a value.
FLAG_DEGENERATE_BETA = "DegenerateBeta"
FLAG_WINDOW_VIOLATED = "TheoremWindowViolated"
FLAG_NO_INFORMATION = "NoInformation"
FLAG_CERTIFICATION_FAILED = "CertificationFailed"
