"""Exception types shared across the package.

Everything raised on purpose derives from TwistgateError, so callers (and the
CLI exit-code mapping) can treat "the input is outside the supported desk
scale" uniformly.  Argument rules belong to the library: a value outside a
function's domain raises ArgumentError where the function is defined, and
the CLI only parses, dispatches and prints.
"""


class TwistgateError(Exception):
    """Base class for all library errors."""


class ArgumentError(TwistgateError, ValueError):
    """An argument outside its function's domain; also a ValueError."""


class CompositeResidueError(TwistgateError):
    """Trial division left a cofactor above 10^12 that we cannot certify prime."""


class EvenModulusError(TwistgateError):
    """Jacobi symbol requested for an even modulus."""


class ZeroInputError(TwistgateError):
    """Valuation (or squarefree part) of zero requested."""


class SingularCurveError(TwistgateError):
    """Weierstrass equation has discriminant zero."""


class NotSquarefreeError(TwistgateError):
    """Twist parameter must be a nonzero squarefree integer."""


class UnsupportedPrimeError(TwistgateError):
    """Operation not implemented at this prime."""


class PrimeTooLargeError(TwistgateError):
    """Point counting beyond its bound, baby-step giant-step at a good prime
    above BSGS_BOUND, or a primality test beyond psi_13."""


class NonMinimalModelError(TwistgateError):
    """Model is visibly non-minimal at a prime where we cannot minimalize."""


class UnsupportedReductionError(TwistgateError):
    """Conductor exponent not computable for this reduction type and prime."""


class UnsupportedPlaceError(TwistgateError):
    """Local root number not covered at this place."""


class UnsupportedReductionAtTwoError(UnsupportedReductionError, UnsupportedPlaceError):
    """Additive reduction at 2, or a model not minimal at 2: neither the
    conductor exponent nor the local root number there is covered."""


class HypothesisViolationError(TwistgateError):
    """A precondition of the twist root-number formula failed."""


class BadAuxPrimeError(TwistgateError):
    """Auxiliary prime for the surjectivity check must be a good prime."""


class NotOnCurveError(TwistgateError):
    """Point does not satisfy its curve equation."""


class NonCommutingActionError(TwistgateError):
    """Generator matrices of a signed module must commute."""


class NonInvolutiveActionError(TwistgateError):
    """Generator matrices of a signed module must square to the identity."""


class LemmaSumSizeError(TwistgateError):
    """A 2^r decomposition family above MAX_MODULE_SIZE or MAX_LEMMA_SUM_WORK."""


class WorkBoundError(TwistgateError):
    """A tuple search above fieldsearch.MAX_SEARCH_WORK, or a twist sweep
    above rootnum.MAX_TWIST_DMAX, refused before it starts."""


class TermBudgetError(TwistgateError):
    """Requested series length exceeds the coefficient budget."""


class CurveTableError(TwistgateError):
    """Curve table file is malformed or fails validation."""


class MarginError(TwistgateError):
    """An L-value margin factor that is not finite or is below 1: a value
    beyond such a multiple of the tail bound proves nothing."""


class InvariantError(Exception):
    """An identity that holds by mathematics failed: a fault in the program,
    never unsupported input, so it is deliberately not a TwistgateError."""
