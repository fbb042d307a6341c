"""Exception hierarchy.

Every error raised by the library derives from :class:`RoughvarError`.  The
CLI maps the three branches below onto its exit codes: validation errors
(bad inputs or preconditions) exit 1, numerical errors (a computation could
not reach a decision) exit 2, and I/O errors (unreadable or malformed files)
exit 3.
"""

from __future__ import annotations


class RoughvarError(Exception):
    """Base class for all library errors."""


class ValidationError(RoughvarError):
    """Invalid argument, violated precondition, or malformed configuration."""


class ResolutionError(ValidationError):
    """A grid is too coarse to resolve the requested object."""


class SourceError(ValidationError):
    """An analytic source gives no value per partition point, is nonzero at 0, or falls."""


class NumericalError(RoughvarError):
    """A computation finished but could not reach a required decision;
    ``evidence`` lists what was observed up to the abort (a search's probes)."""

    def __init__(self, message: str, evidence: list | None = None):
        super().__init__(message)
        self.evidence = evidence or []


class BracketError(NumericalError):
    """A search range does not bracket the quantity being searched for."""


class InconclusiveError(NumericalError):
    """A probe produced a classification the caller cannot act on."""


class EvaluationError(NumericalError):
    """A pointwise evaluation produced a non-finite value."""


class FormatError(RoughvarError):
    """A file could not be parsed in the expected format."""
