"""Exception types shared across the package."""


class PlottmatchError(Exception):
    """Base class for all domain errors raised by this package."""


class UniverseMismatch(PlottmatchError):
    """Two values built over different contract universes were combined."""


class CapExceeded(PlottmatchError):
    """An exhaustive operation was requested above its universe-size cap."""


class EmptyList(PlottmatchError):
    """A nonempty collection (of choice functions, or of stable sets) was required."""


class AxiomsFail(PlottmatchError):
    """A Lehmann relation failed its axiom audit, whose report is the ``report`` attribute."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NotSemiStable(PlottmatchError):
    """A pair failed SSP1 (cover) or SSP2 (proposal containment)."""


class NotCertified(PlottmatchError):
    """A side or function that must be path-independent (Plott) is not, or is not certified."""


class NotStable(PlottmatchError):
    """A set claimed stable failed the stability check."""


class NotDominated(PlottmatchError):
    """Pointwise dominance between two choice functions fails at the ContractSet ``witness``."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class InternalError(PlottmatchError):
    """An invariant the theory guarantees was observed to fail."""


class ParseError(PlottmatchError):
    """A market instance document, or a set literal, is malformed.

    Named ParseError rather than SyntaxError to avoid shadowing the
    builtin. Carries the 1-based line number on ``line``.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownAgent(ParseError):
    """A document or a lookup named an agent (or an agent's spec) that was never declared."""
