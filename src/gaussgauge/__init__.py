"""Drift-diffusion separation toolkit for bosonic Gaussian channels.

Builds Gaussian generators from linear Lindblad data and their finite-time
channels, solves the Lyapunov/Stein equations that gauge diffusion out of
the spectral problem, detects exceptional points through drift
defectiveness, and sweeps the model families into figure-ready datasets
(see the ``gaussgauge`` CLI).
"""

from .errors import (
    ConvergenceError,
    DegenerateModelError,
    DegenerateSpectrumError,
    DimensionError,
    GaussGaugeError,
    NonFiniteInputError,
    NumericalOverflowError,
    PhysicalityError,
    StabilityError,
)
from .phase_space import (
    CpReport,
    GaussianChannel,
    MomentState,
    Ordering,
    apply_channel,
    compose,
    cp_check,
    identity_channel,
    interleaving_permutation,
    reorder,
    symplectic_form,
    vacuum_state,
)
from .generators import (
    GaussianGenerator,
    LindbladData,
    cp_check_generator,
    from_lindblad,
    semigroup_arrays,
    semigroup_channel,
)
from .matrix_equations import (
    GaugeCovariance,
    GaugeSource,
    JordanDrift2x2,
    drift_exponential,
    lyapunov_residual,
    solve_lyapunov,
    solve_stein,
    stein_jordan_closed_form,
    stein_residual,
    stein_series,
)
from .gauging import (
    GaugingResult,
    SemigroupGaugingResult,
    SmoothingMap,
    default_gauge_times,
    gauge_channel,
    gauge_semigroup,
)
from .spectral import (
    AdditiveSpectrum,
    JordanReport,
    additive_spectrum,
    bounded_multi_indices,
    jordan_structure,
    truncated_ou_matrix,
)
from .models import (
    AnisotropicDiffusion,
    DriftAlignedDiffusion,
    EpBranch,
    IsotropicDiffusion,
    NmFamilyParams,
    SqueezedReservoirParams,
    drift_tensor,
    memory_factor,
    nm_channel,
    nm_diffusion,
    nm_drift,
    nm_ep_gauge,
    squeezed_drift_eigenvalues,
    squeezed_ep_gauge,
    squeezed_generator,
    squeezed_jump_row,
    squeezed_lindblad_data,
    thermal_loss_channel,
)

__version__ = "0.1.0"
