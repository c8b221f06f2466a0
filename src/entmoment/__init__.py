"""Reconstruction-free estimation of two-qubit entanglement measures.

A numpy library plus CLI that simulates collective-measurement protocols:
four moment observables on grouped state copies determine the concurrence
and entanglement of formation of an unknown two-qubit state, and the
spectrum of a structural-physical-approximation channel output determines
the negativity-based computable measure for any d (x) d system.  Exact
measures, finite-shot sampling and a tomography baseline are included for
validation and resource comparison.
"""

from .inversion import SpectrumRecovery, spectrum_from_power_sums
from .linalg import (
    cyclic_shift_matrix,
    general_eigenvalues,
    herm_eigen,
    herm_eigenvalues,
    matrix_sqrt_psd,
    partial_transpose,
    tensor,
)
from .measures import (
    ConcurrenceBreakdown,
    GammaReport,
    NegativityReport,
    PptVerdict,
    SPIN_FLIP,
    binary_entropy,
    concurrence,
    concurrence_breakdown,
    ef_from_concurrence,
    gamma_concurrence_report,
    negativity_report,
    ppt_verdict,
    spin_flip,
)
from .protocols import (
    MomentVector,
    QUOTED_TOMOGRAPHY_R,
    ResourceLedger,
    SECOND_STAGE_ABANDONED,
    SpectrumEstimate,
    TwoStageResult,
    channel_moments,
    concurrence_from_moments,
    exact_moments,
    moment_from_channel,
    newton_invert,
    resource_ledger,
    spectrum_protocol,
    two_stage_protocol,
)
from .sampling import (
    EstimatorRun,
    MomentSample,
    ShotRecord,
    SpectrumRun,
    TomographyRun,
    moment_standard_error,
    moment_success_probability,
    run_concurrence_protocol,
    run_spectrum_protocol,
    run_tomography_baseline,
    sample_moment_povm,
)
from .spa import (
    AMPLIFICATION_FACTORS,
    GroupChannelOutput,
    affine_map,
    apply_spa_pt,
    group_channel_output,
    inverse_affine,
    moment_observable_spec,
    spa_shrink,
    spa_threshold_by_choi,
)
from .states import (
    DensityMatrix,
    StateDiagnostics,
    bell_state,
    isotropic_state,
    make_state,
    product_pure_state,
    random_mixed_state,
    random_pure_state,
    random_unitary,
    rng_stream,
    state_from_json,
    state_to_json,
    validate_state,
    werner_state,
)

__version__ = "0.1.0"
