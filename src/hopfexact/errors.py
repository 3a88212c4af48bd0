"""Exception types shared across the package.

Every anticipated failure mode gets its own class so that callers (and the
CLI) can map failures to exit codes without string matching.  All of them
derive from :class:`HopfExactError`.
"""

from __future__ import annotations


class HopfExactError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(HopfExactError):
    """Division by zero, or by a zero divisor of a formal quadratic layer."""


class FieldMismatch(HopfExactError):
    """Two elements (or an element and a context) live in incompatible fields."""


class AlreadyExtended(HopfExactError):
    """A context with a quadratic layer cannot be extended a second time."""


class ZeroDiscriminant(HopfExactError):
    """adjoin_sqrt was called with discriminant zero."""


class DimensionMismatch(HopfExactError):
    """Matrix/vector shapes do not line up."""


class NotAnAlgebra(HopfExactError):
    """Structure tensors fail associativity or unitality where required."""


class SingularAntipode(HopfExactError):
    """The antipode matrix is not invertible."""


class NotOverKp(HopfExactError):
    """A computation specific to the 8-dimensional self-dual Hopf algebra
    received a comodule algebra over some other Hopf algebra."""


class BadWitness(HopfExactError):
    """A witness fails its check: a claimed character that is not a unital
    algebra map, or a spun subspace that is not costable."""


class CoactionUnsolvable(HopfExactError):
    """The linear system determining an induced coaction has no (unique)
    solution."""


class UnsupportedDimension(HopfExactError):
    """An isomorphism search was asked about inputs outside its scope."""


class NotSemisimple(HopfExactError):
    """A decomposition routine that requires semisimplicity detected a
    radical (or a non-diagonalizable commutant element)."""


class NeedsFieldExtension(HopfExactError):
    """A square root does not exist in the current field context.

    The offending element is stored in :attr:`discriminant`; callers may
    adjoin a formal square root of it and retry.
    """

    def __init__(self, discriminant, message: str | None = None):
        self.discriminant = discriminant
        super().__init__(message or f"no square root in context: {discriminant}")


class NotACocycle(HopfExactError):
    """A twisting function fails the 2-cocycle identity or normalization."""


class GammaNotPrimitiveFourthRoot(HopfExactError):
    """The gamma parameter must satisfy gamma**2 == -1."""


class InvalidKind(HopfExactError):
    """Unknown generic-extension kind."""


class NonlinearResidue(HopfExactError):
    """A vanishing question is undecided: nonlinear constraints remain."""
