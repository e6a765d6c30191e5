"""Exception types shared across the solver modules."""


class NotUnichainError(ValueError):
    """The chain has more than one recurrent class."""


class NotAperiodicError(ValueError):
    """The recurrent class of the chain is periodic."""


class AbsoluteContinuityError(ValueError):
    """A pmf puts mass where its reference pmf has none (KL cost is infinite)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget or hit a non-finite value."""


class ResidualToleranceError(RuntimeError):
    """A post-hoc residual check failed; typically fixed by a smaller step."""
