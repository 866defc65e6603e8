"""Classical covariance-matrix analogs of Gaussian entanglement measures.

Build a quadratic oscillator model, decompose it into normal modes, assemble
the classical (or ground-state) covariance matrix, and evaluate purities,
entropies and logarithmic negativity of its reductions::

    import numpy as np
    from oscent import (TwoMode, normal_modes, classical_covariance,
                        reduce_modes, measure_report)

    modes = normal_modes(TwoMode(A=5.0, B=20.0, C=10.0))
    cov = classical_covariance(modes, actions=np.ones(2))
    report = measure_report(reduce_modes(cov, [0]))
"""

from .covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    angle_average_covariance,
    classical_covariance,
    partial_transpose,
    quantum_ground_covariance,
    reduce_modes,
    ring_covariance,
)
from .experiments import (
    FitResult,
    SweepTable,
    fit_adjacent_cft,
    fit_kappa_asymptote,
    lattice_adjacent_sweep,
    lattice_disjoint_sweep,
    lattice_size_sweep,
    read_sweep_csv,
    saturation_curve,
    sweep_ghoc_y2,
    sweep_two_mode_coupling,
)
from .linalg import (
    EigDecomposition,
    eig_sym,
    jacobi_eig_sym,
    mat_pow,
    symplectic_form,
    symplectic_spectrum,
)
from .measures import (
    DEFAULT_ALPHAS,
    AlphaMeasures,
    MeasureReport,
    alpha_family,
    g_alpha,
    measure_report,
    one_mode_purity_closed_form,
    one_mode_sigma_closed_form,
    purity_from_determinant,
    sigma_tilde,
    two_mode_reduced_purity,
    von_neumann_entropy,
)
from .models import (
    CircularLattice,
    GeneralizedChain,
    HamiltonianModel,
    NormalModes,
    StabilityReport,
    TwoMode,
    TwoModeAngles,
    TwoModeGeneralized,
    assemble_ky,
    load_model,
    m_matrix,
    model_from_dict,
    model_to_dict,
    normal_modes,
    ring_frequencies,
    save_model,
    stability,
    two_mode_angles,
)
from .negativity import (
    NegativityResult,
    log_negativities,
    log_negativity,
    log_negativity_via_symplectic,
)
from . import errors

__version__ = "0.1.0"
