"""Exception hierarchy shared by every module in the package."""


class GgmError(Exception):
    """Base class for all domain errors raised by this package."""


class NotPositiveDefinite(GgmError):
    """A matrix required to be SPD failed factorization (pivot <= 0 or non-finite)."""


class DimensionMismatch(GgmError):
    """Two arguments that must share an order do not."""


class SameVertex(GgmError):
    """An operation on a pair of vertices received the same vertex twice."""


class IndexOutOfRange(GgmError):
    """A vertex index falls outside {0, ..., p-1}."""


class IndexOverlap(GgmError):
    """A vertex appears both as the target and inside the conditioning/neighbor set."""


class EmptySet(GgmError):
    """A vertex set that must be nonempty is empty."""


class NoEdges(GgmError):
    """The matrix has no off-diagonal support, so no edgewise quantity exists."""


class NoMissingEdge(GgmError):
    """The competing support covers every true edge; the separation bound does not apply."""


class InvalidParameters(GgmError):
    """A numeric parameter violates its stated preconditions."""


class InfeasibleStart(GgmError):
    """No valid starting point exists for the constrained fit."""


class InvalidDiagonal(GgmError):
    """A supplied diagonal is the wrong length or not strictly positive."""
