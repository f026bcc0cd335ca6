"""Exception types shared across the package."""


class HypermatchError(Exception):
    """Base class for errors raised by this package. Keyword details are kept
    as `details`; a pipeline step that the error fails records them with the
    message, and the error carries the trace so far as `trace`."""

    trace = None

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class InvalidQueryError(HypermatchError, ValueError):
    """A query violates an operation's parameter ranges or a documented
    precondition (bad l, vertex out of range, infeasible padding, ...)."""


class SamplingExhaustedError(HypermatchError, RuntimeError):
    """A rejection sampler ran out of tries before meeting its condition."""


class BudgetExceededError(HypermatchError, RuntimeError):
    """A branch-and-bound search exceeded its node budget (the detail `nodes`)."""

    @property
    def nodes(self) -> int:
        return self.details["nodes"]


class StepFailureError(HypermatchError, RuntimeError):
    """A constructive pipeline step could not be completed."""


class InternalContradictionError(HypermatchError, RuntimeError):
    """A certified-true assertion failed on inputs meeting all preconditions.

    This indicates a bug in the implementation, never a property of the input.
    The message says which assertion failed; inside the pipeline, the failed
    step is the last step of the carried trace.
    """
