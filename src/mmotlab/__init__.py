"""Discrete multi-marginal optimal transport laboratory."""

from .core import (
    BUILTIN_COSTS,
    CostModel,
    Coulomb1D,
    Coupling,
    DiscreteMarginal,
    DualPotentials,
    ExpCos,
    InconsistentCouplingError,
    InfeasibleTransportError,
    InternalConsistencyError,
    InvalidCertificateError,
    IterationBudgetError,
    NondifferentiableCostError,
    PreconditionError,
    ProductSpace,
    ProductXYZ,
    SingularBlockError,
    Tabulated,
    TransportError,
    TwoWell,
    UndefinedRegionError,
    UserHook,
    eval_cost,
    make_cost,
)
from .diff import (
    OffDiagonalHessian,
    SignatureReport,
    hessian_offdiag,
    signature,
    three_marginal_criterion,
)
from .extremal import (
    ExtremalityCertificate,
    Theorem41Report,
    check_thm41,
    find_theta,
    is_vertex,
    lemma_trip_check,
    symmetry_witness,
)
from .solver import SolveResult, c_conjugate_update, duality_gap, solve_exact
from .structure import (
    GraphDecomposition,
    SplittingSetReport,
    TwistReport,
    check_c_monotone,
    decompose_graphs,
    region_of,
    splitting_support,
    twist_multiplicity,
)

__version__ = "0.1.0"
