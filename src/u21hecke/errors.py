"""Error taxonomy. Every failure mode gets its own exception class so the
harness can distinguish "check failed" from "check could not decide"."""


class U21Error(Exception):
    """Base class for all package errors."""


class InversionOfZero(U21Error):
    """Tried to invert an element that is zero (or certified-zero window)."""


class InsufficientPrecision(U21Error):
    """A computation needs more certified coefficients than available."""


class IndeterminateMembership(U21Error):
    """A membership/equality test could not be decided at this precision."""


class RelationViolated(U21Error):
    """Constructor arguments do not satisfy the defining relation."""


class MembershipViolated(U21Error):
    """An element that must lie in a subgroup certifiably does not."""


class NotApplicable(U21Error):
    """Operation invoked outside its declared domain."""


class DegenerateWeight(U21Error):
    """Weight lacks the structure an operation requires (e.g. the invariant
    line is not one-dimensional)."""


class PrecisionBudgetExceeded(U21Error):
    """Retry at doubled precision also failed."""


class ClosureBudgetExceeded(U21Error):
    """A spanning/closure loop exceeded its dimension or iteration cap."""


class InvarianceViolated(U21Error):
    """A vector or function that must be invariant is certifiably not."""


class CrossCheckFailed(U21Error):
    """Two independent routes to the same quantity disagree."""


class InconclusiveLattice(U21Error):
    """Submodule lattice computation did not resolve to the expected shape."""
