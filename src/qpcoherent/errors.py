"""Exception types shared across the library."""


class QpcError(Exception):
    """Base class for all library-specific errors."""


class InvalidParameterError(QpcError, ValueError):
    """A deformation parameter or argument violates a precondition (e.g. p = 0)."""


class RootOfUnityDegeneracyError(QpcError, ArithmeticError):
    """A deformed number [n] vanishes below the working truncation.

    Happens when q*p (or Q**2 in the symmetric case) sits at a root of
    unity; every construction dividing by [n]! is then undefined.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"deformed number [{index}] vanishes; division by [{index}]! undefined"
        )


class LabelOutOfDiskError(QpcError, ValueError):
    """Coherent-state label with |z|^2 at or beyond the convergence radius."""


class ParameterMismatchError(QpcError, ValueError):
    """Two objects built from different deformation parameters were combined."""


class SeriesDivergenceError(QpcError, ArithmeticError):
    """A series evaluation needed as an intermediate result diverged."""


class IllConditionedError(QpcError, ArithmeticError):
    """Moment system condition estimate beyond the trustable range; lower the degree."""


class QuadratureError(QpcError, ArithmeticError):
    """Composite quadrature failed to stabilize at the requested tolerance."""


class OverlapInconsistencyError(QpcError, ArithmeticError):
    """Coefficient-space overlap and its closed form disagree beyond tail bounds."""
