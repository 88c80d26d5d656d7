"""teleres: decide whether a d x d bipartite mixed state is a useful
quantum-teleportation resource.

Criteria implemented: singlet-fraction bounds (exact two-qubit fully
entangled fraction, maximally-entangled-basis overlap, filtered LOCC
value via the partial transpose or its structural physical
approximation), the maximum-eigenvalue test, and two-sided Dembo
eigenvalue bounds, plus an independent brute-force audit harness and a
CLI.
"""

from .linalg import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    hermitian_eigen,
    tensor,
    trace_product,
)
from .states import (
    DensityMatrix,
    MaximallyEntangledVector,
    NotAState,
    ParseError,
    load_state,
    noisy_singlet,
    phi_plus,
    qutrit_me_basis,
    rho1,
    rho2,
    rho3,
    rho_alpha,
    save_state,
    sigma_family,
)
from .criteria import (
    CriterionReport,
    DemboDecomposition,
    DimensionUnsupported,
    FilterOperator,
    Verdict,
    dembo_bounds,
    f_opt_locc_pt,
    f_opt_locc_spa,
    fef_2qubit,
    fidelity_from_fraction,
    is_npt,
    max_eigenvalue,
    optimize_filter,
    partial_transpose,
    sigma_spa_threshold,
    singlet_fraction_basis,
    spa_pt_2qubit,
    spa_trace_identity,
    verdict,
    x_opt,
)
from .oracle import (
    HarnessReport,
    SamplingBudget,
    inequality_harness,
    sampled_singlet_fraction,
    wootters_concurrence,
)

__version__ = "0.1.0"
