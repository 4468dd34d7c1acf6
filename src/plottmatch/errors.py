"""Exception types shared across the package."""


class PlottmatchError(Exception):
    """Base class for all domain errors raised by this package."""


class UniverseMismatch(PlottmatchError):
    """Two values built over different contract universes were combined."""


class CapExceeded(PlottmatchError):
    """An exhaustive operation was requested above its universe-size cap."""


class EmptyList(PlottmatchError):
    """A nonempty collection (of choice functions, or of stable sets) was required."""


class NotPlott(PlottmatchError):
    """A path-independence violation was detected where none is allowed."""


class AxiomsFail(PlottmatchError):
    """A Lehmann relation failed its axiom audit.

    Carries the offending report on the ``report`` attribute.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NotSemiStable(PlottmatchError):
    """A pair failed SSP1 (cover) or SSP2 (proposal containment)."""


class NotCertified(PlottmatchError):
    """An operation requiring Plott-certified sides got uncertified ones."""


class NotStable(PlottmatchError):
    """A set claimed stable failed the stability check."""


class NotDominated(PlottmatchError):
    """Pointwise dominance between two choice functions does not hold."""


class InternalError(PlottmatchError):
    """An invariant the theory guarantees was observed to fail."""


class ParseError(PlottmatchError):
    """A market instance document is malformed.

    Named ParseError rather than SyntaxError to avoid shadowing the
    builtin. Carries the 1-based line number on ``line``.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownAgent(ParseError):
    """A document referenced a firm or worker that was never declared."""


class ContractOutsideBlock(ParseError):
    """A choice spec mentioned a contract outside the agent's own block."""


class PartialTable(ParseError):
    """An explicit choice table does not cover every subset of its block."""
