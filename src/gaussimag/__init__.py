"""Numerical toolkit for the imaginarity of Gaussian quantum channels.

Represent Gaussian states, channels, and superchannels; decide realness
and imaginarity-breaking structure; compute imaginarity measures; and
simulate the imaginarity dynamics of the quantum Brownian motion
channel.
"""

from .gaussian import (
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    RealnessReport,
    SuperchannelPatterns,
    ValidationError,
    apply_channel,
    apply_superchannel,
    channel_realness,
    compose,
    decompose_superchannel,
    from_document,
    sample_random_channel,
    sample_random_state,
    sample_random_superchannel,
    state_realness,
    superchannel_is_imaginarity_breaking,
    superchannel_is_real,
    superchannel_patterns,
    to_document,
    validate_channel,
    validate_state,
    validate_superchannel,
    violated_constraint,
)
from .linalg import (
    DimensionError,
    HermitianForm,
    is_psd,
    min_eigenvalue,
    sigma_blocks,
    spectral_norm,
    symplectic_form,
    trace_norm,
    trace_norms,
)
from .measures import (
    MeasureReport,
    StepThreshold,
    SupSearchConfig,
    channel_measure_ic,
    channel_measure_ic_stack,
    channel_measure_id,
    channel_measure_is,
    in_fo,
    in_fo1,
    state_measure_ign,
)
from .qbm import (
    QbmConfig,
    QbmSolution,
    Trajectory,
    coeff_delta_closed,
    coeff_delta_quadrature,
    coeff_gamma_closed,
    coeff_gamma_quadrature,
    coeff_pi_closed,
    coeff_pi_quadrature,
    imaginarity_trajectory,
    noise_wbar,
    qbm_channel,
    rotation_r,
    solve_qbm,
    steady_state_n12,
)
from .specfun import (
    ConvergenceError,
    PoleError,
    QuadratureSpec,
    expint_e1,
    expint_ei,
    integrate_adaptive,
)

__version__ = "0.1.0"
