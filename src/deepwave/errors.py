"""Exception hierarchy shared by all deepwave modules.

Every error carries a short machine-parsable ``code`` used by the CLI to
emit single-line diagnostics of the form ``error:<code>: <message>``.
"""

from __future__ import annotations


class DeepwaveError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"


class ParameterDomainError(DeepwaveError):
    """An input lies outside the documented physical or numeric domain."""

    code = "parameter-domain"


class DegenerateRootsError(DeepwaveError):
    """The cubic has (numerically) repeated roots; only the two generic
    root configurations are supported."""

    code = "degenerate-roots"


class ContractViolationError(DeepwaveError):
    """A documented precondition was broken by the caller, e.g. a square
    root argument went negative because case and beta do not match."""

    code = "contract-violation"


class AsymptoteProximityError(DeepwaveError):
    """Evaluation was requested too close to a vertical asymptote.

    ``nearest_time`` holds the offending asymptote time when known.
    """

    code = "asymptote-proximity"

    def __init__(self, message: str, nearest_time: float | None = None):
        super().__init__(message)
        self.nearest_time = nearest_time


class StiffnessError(DeepwaveError):
    """The integrator step size underflowed before reaching the end of the
    requested span.  The last accepted state is attached."""

    code = "stiffness"

    def __init__(self, message: str, t_last: float, state_last: tuple):
        super().__init__(message)
        self.t_last = t_last
        self.state_last = state_last

    def __reduce__(self):
        # args holds only the message, which str() and the CLI print, so
        # pickle and copy need the other constructor arguments spelled out.
        return type(self), (self.args[0], self.t_last, self.state_last), self.__dict__


class EmptyReportError(DeepwaveError):
    """A root search found no solutions in the requested window; the caller
    should widen the interval."""

    code = "empty-report"
