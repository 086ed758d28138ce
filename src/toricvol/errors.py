"""Exception hierarchy shared by all modules.

Validation failures (bad input documents) and precondition failures
(legal data fed to an operation outside its domain) are kept apart so
the command line layer can map them to distinct exit codes.
"""


class ToricError(Exception):
    pass


class InvalidFanError(ToricError):
    """Raised when fan data violates the fan axioms.

    Carries the full diagnostic list in ``diagnostics``.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class PreconditionError(ToricError):
    pass


class NotCompleteError(PreconditionError):
    pass


class NotSimplicialError(PreconditionError):
    pass


class NotQCartierError(PreconditionError):
    pass


class EffectiveConeError(PreconditionError):
    """The divisor class has an empty section polytope."""


class UnboundedRegionError(PreconditionError):
    pass


class CapExceededError(PreconditionError):
    """Work past a fixed cap was requested: a subset sweep of more than
    ``regions.SUBSET_CAP`` rays, a lattice count whose box holds more
    than ``regions.FIBER_BUDGET`` integer points of its first n - 2
    coordinates (never in dimension 2), a lattice listing past as many
    fibers (integer points of the first n - 1) or as many points, a
    Cech cover table that may hold more than ``cohomology.COVER_BUDGET``
    tuples of cones sharing a ray, or a probe past m = 50."""


class ChamberWallError(PreconditionError):
    """The divisor class sits on a chamber wall, not in an open chamber."""


class ChamberMembershipError(PreconditionError):
    """The divisor class is not a member of the given chamber cone."""


class UnsupportedDimensionError(PreconditionError):
    pass
