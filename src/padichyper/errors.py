"""Exception hierarchy shared by all padichyper modules."""


class PadicHyperError(Exception):
    """Base class for every error raised by this package."""


class DenominatorDivisibleByP(PadicHyperError):
    """A rational argument has a denominator divisible by p."""


class ContextMismatch(PadicHyperError):
    """Two operands belong to different arithmetic contexts."""


class NotAUnit(PadicHyperError):
    """Inversion was requested for an element divisible by p."""


class ZeroArgument(PadicHyperError):
    """A nonzero field element was required."""


class PrecisionExhausted(PadicHyperError):
    """Renormalization consumed every tracked digit (raise K and retry), or
    ``fields.cyclic_correlation`` cannot prove its float64 rounding exact."""


class CompositeP(PadicHyperError):
    """The characteristic must be an odd prime."""


class FieldTooLarge(PadicHyperError):
    """q exceeds the configured discrete-log table bound."""


class TrivialCharacter(PadicHyperError):
    """The check requires a nontrivial multiplicative character."""


class ModulusMismatch(PadicHyperError):
    """q is not 1 modulo the requested character order."""


class SingularHessian(PadicHyperError):
    """The Hessian cubic is singular (parameter cubes to 1)."""


class SingularCurve(PadicHyperError):
    """The Weierstrass discriminant vanishes."""


class PreconditionFailed(PadicHyperError):
    """An identity check's hypothesis does not hold; carries the gate name."""

    def __init__(self, gate: str):
        super().__init__(gate)
        self.gate = gate


class NotAnInteger(PadicHyperError):
    """A p-adic value claimed to be a rational integer is not one."""


class BoundTooLargeForPrecision(PadicHyperError):
    """p^(available precision) does not exceed twice the recovery bound."""


class NoRepresentativeInBound(PadicHyperError):
    """No integer in [-B, B] matches the residue."""
