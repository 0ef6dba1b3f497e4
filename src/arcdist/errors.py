"""Exception hierarchy shared across the engine and the CLI."""


class ArcdistError(Exception):
    """Base class for all errors raised by arcdist."""


class InvalidTriangulation(ArcdistError):
    """A triangulation table violates a structural invariant; ``problems``
    lists each violation."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class UnflippableEdge(ArcdistError):
    """Both sides of the edge lie in the same triangle, so there is no quad."""


class InconsistentWord(ArcdistError):
    """A crossing word is not locally consistent over its triangulation."""


class BaseMismatch(ArcdistError):
    """Two objects that must share a triangulation do not."""


class PreconditionError(ArcdistError):
    """An operation was invoked outside of its stated domain."""


class InvalidSequence(PreconditionError):
    """An arc sequence breaks its invariant; ``problems`` lists each violation."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class VerificationError(ArcdistError):
    """A certificate or a postcondition failed to re-verify.

    Raised when internal re-checking fails; this always indicates a defect
    (in the input certificate or in the engine), never a valid outcome.
    """


class SchemaError(ArcdistError):
    """A JSON document does not match the documented file format."""
