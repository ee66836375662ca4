"""Exception taxonomy for the jetsym engine.

Names follow the engine's external contract.  The expression-grammar
syntax error is called ``ExprSyntaxError`` to avoid shadowing the
builtin ``SyntaxError``; everything else uses its contract name directly.
"""


class JetsymError(Exception):
    """Base class for all engine errors."""


class ExprSyntaxError(JetsymError):
    """Malformed expression text.  Carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownSymbol(JetsymError):
    """An identifier that is not registered in the workspace."""

    def __init__(self, name, offset=None):
        at = f" (at offset {offset})" if offset is not None else ""
        super().__init__(f"unknown symbol '{name}'{at}")
        self.name = name


class JetOrderExceeded(JetsymError):
    """A parsed jet coordinate exceeds the workspace order cap."""


class HardJetLimitExceeded(JetsymError):
    """Total differentiation pushed the jet order past the hard limit."""


class DivisionByZero(JetsymError):
    """A literal zero denominator was folded during normalization."""


class CyclicBinding(JetsymError):
    """A substitution binding mentions one of the bound symbols."""


class NotInFamily(JetsymError):
    """A term cannot be expressed in the ansatz-family basis."""

    def __init__(self, term, family):
        super().__init__(f"term {term} does not lie in the {family} family module")
        self.term = term


class FamilyNotClosed(JetsymError):
    """An ansatz basis is not closed under d/du up to the declared bound."""


class PreconditionFailed(JetsymError):
    """A named operation precondition does not hold."""

    def __init__(self, check, detail=""):
        extra = f": {detail}" if detail else ""
        super().__init__(f"precondition failed ({check}){extra}")
        self.check = check


class NotSeparable(JetsymError):
    """A right-hand side does not split into x-coefficients times u-fields."""

    def __init__(self, term):
        super().__init__(f"term {term} does not separate into (x-part)*(u-part)")
        self.term = term


class CapExceeded(JetsymError):
    """No finite Vessiot-Guldberg structure found up to the dimension cap."""

    def __init__(self, cap):
        super().__init__(f"no finite VG structure found up to cap {cap}")
        self.cap = cap


class NotSolvableShape(JetsymError):
    """The transformed system is not affine in any catalogued variable."""


class ReductionIncomplete(JetsymError):
    """The direct tangency check could not solve for the leading jets."""


class SchemaError(JetsymError):
    """A problem file violates the documented schema."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
