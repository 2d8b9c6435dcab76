"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`PgtoolError`.
Errors that indicate bad input (rather than a violated geometric
property) additionally derive from :class:`UsageError`; the CLI maps
these to exit code 2, property violations to exit code 1.
Reconstruction refusals come from the fit record of the table: a table
whose images of the points with 0/1 coordinates fit no collineation is
refused with :class:`FrameCheckFailed`, a :class:`NotRegular`, and a
fitted table that differs from kappa rho somewhere raises
:class:`VerificationFailed` at its first such point.  The paper's
Q-frame and probe exponent, which only the `prop-x33` suite runs, raise
:class:`FrameCheckFailed` and :class:`NoAutomorphismMatch` for a frame
or an automorphism they cannot read off.
"""


class PgtoolError(Exception):
    """Base class for all toolkit errors."""


class UsageError(PgtoolError):
    """Invalid input, parameters, or file content."""


# finite fields

class NonPrimeP(UsageError):
    pass


class DegreeZero(UsageError):
    pass


class SizeCapExceeded(UsageError):
    pass


class ZeroInverse(UsageError):
    pass


class FieldMismatch(UsageError):
    pass


# projective spaces

class SpaceMismatch(UsageError):
    pass


class SingularMatrix(UsageError):
    pass


class PointNotInSubspace(UsageError):
    pass


class DimensionMismatch(UsageError):
    pass


# quadrics and closure

class OracleSizeCap(UsageError):
    pass


# arcs and conics

class PointOutsidePlane(UsageError):
    pass


class PointNotOnArc(UsageError):
    pass


class NotRegular(PgtoolError):
    pass


class NoUniqueUnisecant(NotRegular):
    pass


class SigmaFixesLine(UsageError):
    pass


class SigmaFixesP0(UsageError):
    pass


# embedding analysis

class ModeInfeasible(UsageError):
    pass


class NotTotal(UsageError):
    pass


class InvalidPointMap(UsageError):
    """Malformed map table: duplicate sources or a non-injective table."""


class InvalidSemilinearMap(UsageError):
    """Malformed collineation file: missing or mistyped matrix or exponent."""


class NotComplementary(UsageError):
    pass


class ImageNotAPoint(PgtoolError):
    """A punctured-hyperplane image failed to cut the complement in a point."""


class LinesNotConcurrent(PgtoolError):
    """Candidate extension lines do not share a point."""


class NotACollineation(PgtoolError):
    pass


class FrameCheckFailed(NotRegular):
    pass


class NoAutomorphismMatch(NotRegular):
    pass


class VerificationFailed(PgtoolError):
    """Pointwise certificate failed; carries the first counterexample point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ForeignTarget(UsageError):
    """Reconstruction requires source and target over the same field."""


# harness

class ParamOutOfRange(UsageError):
    pass


class UnknownSuite(UsageError):
    pass
