"""Exception hierarchy shared by all afem modules."""


class AfemError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveArea(AfemError):
    """A triangle is degenerate or its vertices are listed clockwise."""


class HangingNode(AfemError):
    """An edge is shared by more than two triangles or a vertex sits on
    the interior of another triangle's edge."""


class DanglingBoundaryTag(AfemError):
    """A boundary specification entry does not match any boundary edge."""


class InvalidMark(AfemError):
    """A marked triangle index is out of range."""


class NotPositiveDefinite(AfemError):
    """The diffusion matrix fails the SPD check at a sampled point."""


class NonFiniteCoefficient(AfemError):
    """A coefficient or the Dirichlet data is NaN or infinite at a point
    where the discretization evaluates it."""


class UnknownBenchmark(AfemError):
    """Benchmark name not registered."""


class SingularLocalFactor(AfemError):
    """A local condensation factor 1 + gamma_h*S_T/4 is (numerically) zero."""


class SingularMatrix(AfemError):
    """A direct solve broke down or lost more than half the working digits
    (its refinement correction exceeds ``solver.FORWARD_TOL``); the discrete
    problem is taken as singular at this mesh size (e.g. reaction
    coefficient at a discrete eigenvalue)."""


class MeshMismatch(AfemError):
    """Two discrete objects do not live on the same triangulation."""


class NoExactSolution(AfemError):
    """Error norms were requested for a problem without exact solution."""


class BadTheta(AfemError):
    """Marking fraction must satisfy 0 < theta <= 1."""


class EquivalenceViolation(AfemError):
    """The condensed and hybridized element blocks, or the reconstructed and
    hybrid-recovered mixed solutions, disagree beyond their bounds; aborting
    the run."""


class ConfigError(AfemError):
    """Invalid experiment configuration."""
