"""Exception and warning types shared across the package."""


class CrookedError(Exception):
    """Base class for all package errors."""


class UnsupportedDegree(CrookedError):
    """Extension degree outside the supported range."""


class InvalidModulus(CrookedError):
    """Modulus polynomial is reducible or has the wrong degree."""


class UndefinedPower(CrookedError):
    """0^0 requested."""


class InvalidSubfield(CrookedError):
    """Subfield degree does not divide the extension degree."""


class NotAUnit(CrookedError):
    """Operation requires a nonzero field element."""


class InvalidInput(CrookedError):
    """Malformed argument (bad exponent, out-of-range index, ...)."""


class InvalidDirection(CrookedError):
    """Derivative direction a = 0 requested."""


class InfeasibleSize(CrookedError):
    """Computation refused: instance exceeds the documented feasibility cutoff."""


class DegreeMismatch(CrookedError):
    """Two objects live over different fields."""


class InvalidParams(CrookedError, ValueError):
    """Construction parameters refused; `violations` lists each violated
    hypothesis, sorted, and the CLI prints them one a line on stdout."""

    def __init__(self, violations):
        self.violations = sorted(violations)
        super().__init__("; ".join(self.violations))


class NotGold(InvalidParams):
    """Gold exponent s violates gcd(s, n) = 1."""


class MalformedFile(CrookedError):
    """Function file fails schema validation."""


class NotApnWarning(UserWarning):
    """A parameter tuple meets a family's stated hypotheses, yet the
    function it builds is not APN."""
