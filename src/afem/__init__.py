"""Nonconforming and mixed finite elements for second-order linear elliptic
problems, possibly indefinite and non-selfadjoint, with residual a
posteriori error control and adaptive red-green-blue refinement.

The mixed (lowest-order Raviart-Thomas) solution is available both from a
direct solve of the hybridized saddle-point system and from a closed-form
reconstruction out of a modified Crouzeix-Raviart solve. The two are equal
triangle by triangle: the condensed and hybridized element blocks agree to
roundoff, and so do the reconstruction and the hybrid recovery from the
Crouzeix-Raviart solution, which every reconstruction checks.
"""

from .adapt import (
    EstimatorReport,
    LevelResult,
    MarkedSet,
    adaptive_loop,
    average_cr,
    dorfler_mark,
    estimate_mixed,
)
from .assembly import (
    CRSolution,
    MixedSolution,
    SparseSystem,
    assemble_mixed_direct,
    assemble_modified_ncfem,
    assemble_ncfem,
)
from .bench import (
    ConvergenceHistory,
    ExperimentConfig,
    LevelRecord,
    error_norms,
    run_experiment,
)
from .errors import (
    AfemError,
    BadTheta,
    ConfigError,
    DanglingBoundaryTag,
    EquivalenceViolation,
    HangingNode,
    InvalidMark,
    MeshMismatch,
    NoExactSolution,
    NonFiniteCoefficient,
    NonPositiveArea,
    NotPositiveDefinite,
    SingularLocalFactor,
    SingularMatrix,
    UnknownBenchmark,
)
from .mesh import Triangulation, build_mesh, read_mesh_file, write_mesh_file
from .problem import (
    DEFAULT_GAMMA_SWEEP,
    LSHAPE_LAMBDA_1,
    CoefficientField,
    PiecewiseData,
    ProblemInstance,
    benchmark,
    crack_start_mesh,
    lshape_start_mesh,
    project_p0,
    register_problem,
    s_of_t,
)
from .refine import rgb_refine, uniform_red_refine
from .solver import (
    LinearSolveReport,
    MixedSolve,
    equivalence_residual,
    solve_mixed_direct,
    solve_mixed_via_equivalence,
    solve_ncfem,
    solve_sparse,
)

__version__ = "0.1.0"
