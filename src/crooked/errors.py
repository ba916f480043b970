"""Exception and warning types shared across the package: one refusal type
per CLI exit code, plus InvalidModulus, which callers catch on its own."""


class CrookedError(Exception):
    """Base class for all package errors."""


class InvalidInput(CrookedError):
    """Malformed argument (bad exponent, out-of-range index or degree, zero
    where a unit is needed, 0^0, ...)."""


class InvalidModulus(InvalidInput):
    """Modulus polynomial is reducible or has the wrong degree."""


class InfeasibleSize(CrookedError):
    """Computation refused: instance exceeds the documented feasibility cutoff."""


class DegreeMismatch(CrookedError):
    """Two objects live over different fields."""


class InvalidParams(CrookedError):
    """Construction parameters refused; `violations` lists each violated
    hypothesis, sorted, and the CLI prints them one a line on stdout."""

    def __init__(self, violations):
        self.violations = sorted(violations)
        super().__init__("; ".join(self.violations))


class MalformedFile(CrookedError):
    """Function file fails schema validation."""


class NotApnWarning(UserWarning):
    """A parameter tuple meets a family's stated hypotheses, yet the
    function it builds is not APN."""
