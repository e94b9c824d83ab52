"""Numerical laboratory for chaoticity of many-body quantum states.

The package builds N-site density operators on finite-dimensional Hilbert
spaces, measures how close their marginals stay to tensor powers of a
one-site state (the quantum analogue of chaoticity for exchangeable
particle systems), evolves them under mean-field Hamiltonians, integrates
the limiting nonlinear one-site equation, and audits every quantitative
bound the theory provides: factorization rates, hierarchy defects, and
the propagation-of-chaos inequality chain.

Layering, lowest first; a module imports only from its own layer or below
(tests/test_layering.py checks it): errors and version
-> linalg (dense Hermitian primitives) -> tensor (sites, kron,
partial trace, conjugation by a site permutation given as its image tuple)
-> states (density operators, symmetric mixtures)
-> metrics (chaos distance, empirical variance, rate bounds)
-> dynamics (exact evolution, the nonlinear flow, hierarchy residuals)
-> blocks (exact evolution at d = 2 in the spin blocks; the propagator per d)
-> config -> experiments -> cli (the reproducible experiment harness).
"""

from .version import __version__
from .errors import (
    BadSiteIndex,
    BoundViolation,
    ChaoticityError,
    ConfigInvalid,
    ConvergenceFailure,
    DensityDriftExceeded,
    DimensionMismatch,
    MemoryBudgetExceeded,
    NotHermitian,
    NotPSD,
    NotSymmetric,
    ParseError,
    StepTooLarge,
    TraceNotOne,
    WeightsInvalid,
)
from .linalg import (
    herm_eigen,
    is_hermitian,
    operator_norm,
    trace_norm,
)
from .tensor import (
    TensorShape,
    conjugate_by_permutation,
    kron,
    partial_trace,
    tensor_power,
)
from .states import (
    DensityOperator,
    ProductMixture,
    is_symmetric,
    product_state,
    random_density,
    random_hermitian,
    validate,
)
from .metrics import (
    ChaosReport,
    chaos_distance,
    chaos_distances,
    chaos_report,
    combinatorial_factor,
    corollary_bound,
    empirical_variance,
    factorization_error,
    weyl_basis,
)
from .blocks import BlockPropagator
from .dynamics import (
    ExactPropagator,
    HartreeTrajectory,
    HierarchyResidual,
    MeanFieldSystem,
    bbgky_residual,
    bbgky_residuals,
    build_hamiltonian,
    epsilon_term,
    gronwall_envelope,
    hartree_endpoints,
    hartree_rhs,
    integrate_hartree,
    step_cap,
    tensor_hierarchy_residual,
)
from .config import ExperimentConfig, config_hash, parse_config, write_config
from .experiments import ResultTable, run_experiment
from .cli import main, write_table
