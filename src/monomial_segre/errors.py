"""Exception hierarchy shared by all modules."""


class MonomialSegreError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(MonomialSegreError):
    """Vector lengths or variable counts disagree."""


class DegenerateConfigurationError(MonomialSegreError):
    """No full-dimensional starting simplex exists in the given placement order."""


class ClassificationError(MonomialSegreError):
    """A placed blow-up lift has a cell with the second center ray but
    neither the exceptional ray nor the first; only a model bug reaches it."""


class EmptyCenterError(MonomialSegreError):
    """Attempted to blow up along a pair of divisors whose intersection is known empty."""


class LevelMismatchError(MonomialSegreError):
    """A class was fed to an operation of a ring it does not live on."""


class NoAdmissibleCenterError(MonomialSegreError):
    """A non-divisor presentation has no slot for `select_center`: no pair of
    minimal generators of opposite signs on an edge of a facet where both are
    co-minimal.  Only a model bug reaches it."""


class TowerDivergenceError(MonomialSegreError):
    """Principalization did not reach a divisor within the iteration cap."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TermBudgetError(MonomialSegreError):
    """A series would hold more terms than series.TERM_BUDGET."""
