"""Drift-diffusion separation toolkit for bosonic Gaussian channels.

Builds Gaussian generators and channels from Lindblad or white-noise data,
solves the Lyapunov/Stein equations that gauge diffusion out of the spectral
problem, detects exceptional points through drift defectiveness, and sweeps
the model families into figure-ready datasets (see the ``gaussgauge`` CLI).
"""

from .errors import (
    ConvergenceError,
    DegenerateModelError,
    DegenerateSpectrumError,
    DimensionError,
    GaussGaugeError,
    NonFiniteInputError,
    NotGaugeableError,
    NumericalOverflowError,
    PhysicalityError,
    StabilityError,
)
from .phase_space import (
    CpMethod,
    CpReport,
    DisplacementGauge,
    GaussianChannel,
    MomentState,
    Ordering,
    SymplecticForm,
    apply_channel,
    compose,
    cp_check,
    cp_matrix,
    displacement_gauge,
    identity_channel,
    interleaving_permutation,
    reorder,
    symplectic_form,
    uncertainty_margin,
    vacuum_state,
)
from .generators import (
    GaussianGenerator,
    LindbladData,
    WhiteNoiseData,
    cp_check_generator,
    from_lindblad,
    from_white_noise,
    propagate_moments,
    semigroup_channel,
)
from .matrix_equations import (
    GaugeCovariance,
    GaugeSource,
    JordanDrift2x2,
    StabilityMode,
    StabilityReport,
    drift_exponential,
    expm2,
    lyapunov_residual,
    solve_lyapunov,
    solve_stein,
    stability,
    stein_jordan_closed_form,
    stein_residual,
    stein_series,
)
from .gauging import (
    GaugingResult,
    SemigroupGaugingResult,
    SmoothingMap,
    SpectrumCheck,
    default_gauge_times,
    gauge_channel,
    gauge_semigroup,
    similarity_spectrum_check,
)
from .spectral import (
    AdditiveSpectrum,
    JordanReport,
    additive_spectrum,
    bounded_multi_indices,
    drift_restriction_matrix,
    jordan_structure,
    ou_monomial_basis,
    truncated_ou_matrix,
)
from .models import (
    AnisotropicDiffusion,
    DriftAlignedDiffusion,
    EpBranch,
    IsotropicDiffusion,
    NmFamilyParams,
    SqueezedReservoirParams,
    critical_oscillator,
    drift_tensor,
    ep_free_catalog,
    memory_factor,
    nm_channel,
    nm_diffusion,
    nm_drift,
    nm_ep_gauge,
    quadrature_diffusion_channel,
    squeezed_drift_eigenvalues,
    squeezed_ep_gauge,
    squeezed_general_gauge,
    squeezed_generator,
    squeezed_jump_row,
    squeezed_lindblad_data,
    thermal_loss_channel,
)

__version__ = "0.1.0"
