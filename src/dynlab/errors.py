"""Exception types shared across the library."""


class DynlabError(Exception):
    """Base class for all library errors."""


class PointOutsideDomain(DynlabError):
    """A point lies outside an interval factor by more than the tolerance."""


class OddDimension(DynlabError):
    """A symplectic check was requested on an odd-dimensional space."""


class NoConvergence(DynlabError):
    """An iterative solver ran out of iterations."""


class SingularJacobian(DynlabError):
    """A Newton step or the inverse-function rule hit a singular Jacobian."""


class NotHyperbolic(DynlabError):
    """Some eigenvalue modulus sits on the unit circle within tolerance."""


class NoMetadata(DynlabError):
    """An operation needs metadata the map does not declare (lam/lip, a Jacobian)."""


class Uncovered(DynlabError):
    """The covering check failed; carries a witness cell."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LambdaOutOfRange(DynlabError):
    """Contraction bound outside (0, 1)."""


class StepLimit(DynlabError):
    """Backward density search exceeded its step allowance."""


class BudgetExhausted(DynlabError):
    """Cell-visit budget ran out (orbit explorations flag instead of raising)."""


class NotInvertible(DynlabError):
    """An inverse or backward iteration was requested of maps without inverses."""


class NotFixedPoint(DynlabError):
    """An operation requires a fixed point of the skew product."""


class DominationViolated(DynlabError):
    """Base contraction is not stronger than every fiber contraction."""


class RectanglesOverlap(DynlabError):
    """Horseshoe rectangles must have pairwise disjoint closures."""


class DepthExhausted(DynlabError):
    """Strip intersection search ran past its depth bound."""

    def __init__(self, message, depth_bound=None):
        super().__init__(message)
        self.depth_bound = depth_bound


class VectorTooLarge(DynlabError):
    """Translation vector does not fit inside the bump collar."""


class ScheduleTooSmall(DynlabError):
    """Block schedule has too few symbols for the requested roles."""


class DomainOverflow(DynlabError):
    """A shear would push points out of the annulus."""


class IntegratorDiverged(DynlabError):
    """Implicit midpoint inner solve failed to converge."""


class NoChain(DynlabError):
    """No chain of invariant circles connects the two regions."""


class HorizonExhausted(DynlabError):
    """Shadowing ran past its iteration horizon on some circle."""


class ConfigInvalid(DynlabError):
    """Experiment configuration failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
