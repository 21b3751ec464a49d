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
    superchannel_patterns,
    to_document,
    violated_constraint,
)
from .linalg import (
    DimensionError,
    is_psd,
    min_eigenvalue,
    sigma_blocks,
    spectral_norm,
    symplectic_form,
    trace_norms,
)
from .measures import (
    STEP_EPSILON,
    MeasureReport,
    SupSearchConfig,
    channel_measure_ic,
    channel_measure_ic_stack,
    channel_measure_id,
    channel_measure_is,
    in_fo,
    in_fo1,
    state_measure_ign,
    step_function,
)
from .qbm import (
    QbmConfig,
    Trajectory,
    coefficients,
    imaginarity_trajectory,
    qbm_channel,
    steady_state_n12,
)
from .specfun import (
    PoleError,
    expint_e1,
    expint_ei,
)

__version__ = "0.1.0"
