"""Exception types shared across the package."""


class SchemeDoubleError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(SchemeDoubleError):
    pass


class ReduciblePolynomial(SchemeDoubleError):
    pass


class NotInvertible(SchemeDoubleError):
    pass


class NoSolution(SchemeDoubleError):
    pass


class DimensionMismatch(SchemeDoubleError):
    pass


class FieldMismatch(SchemeDoubleError):
    pass


class NotAGroup(SchemeDoubleError):
    pass


class CharZero(SchemeDoubleError):
    pass


class NotRestrictedLie(SchemeDoubleError):
    pass


class ClosureNotHopf(SchemeDoubleError):
    pass


class NotNormal(SchemeDoubleError):
    pass


class NoInvertibleSectionFound(SchemeDoubleError):
    pass


class InvalidTriple(SchemeDoubleError):
    pass


class NotSurjective(SchemeDoubleError):
    pass


class NotHopfMorphism(SchemeDoubleError):
    pass


class NoFactorization(SchemeDoubleError):
    """Raised when a map out of D(G) does not factor through a theta.

    Carries a witness: a vector of ker(theta) that the map does not kill.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(SchemeDoubleError):
    pass


class FieldTooLargeForEnumeration(BudgetExceeded):
    pass


class NotConstant(SchemeDoubleError):
    pass


class MissingRibbonElement(SchemeDoubleError):
    pass


class SchemaError(SchemeDoubleError):
    """Malformed JSON input (CLI exit code 2)."""


class VerificationFailure(SchemeDoubleError):
    """A constructed object failed a structural check that must hold.

    This always indicates an implementation bug or corrupted input data,
    never an expected runtime condition.
    """
