"""Exact simulation of Gaussian boson sampling with threshold detectors.

Core pieces: Gaussian states in quadrature form, Torontonian and Hafnian
matrix functions, exact click-pattern probabilities, a chain-rule sampler
over signed Gaussian mixtures, and homodyne/heterodyne measurements on
those mixtures.
"""

from types import ModuleType as _ModuleType

from .errors import FormatError, GbsimError, NumericalError, PhysicalityError
from .gaussian import (
    HBAR,
    ClickPattern,
    ComplexUnitary,
    HusimiCovariance,
    KernelMatrix,
    PNRPattern,
    QuadratureState,
    apply_interferometer,
    haar_unitary,
    husimi_covariance,
    kernel_matrix,
    q_function,
    quadrature_covariance,
    reduce_matrix,
    reduce_state,
    squeezed_state,
    vacuum_state,
    validate_state,
)
from .hafnian import hafnian_from_torontonian, hafnian_naive, hafnian_powerset
from .probabilities import (
    CollisionReport,
    ThresholdDistribution,
    collision_probability,
    distribution,
    haar_collision_experiment,
    photon_moments,
    pnr_prob,
    threshold_prob,
    threshold_prob_oracle,
    tor_as_hafnian_sum,
)
from .sampler import (
    GaussianMixture,
    SampleRecord,
    chain_rule_probability,
    herald,
    sample,
    sample_batch,
    step,
    substream_id,
)
from .cv import (
    GaussianPOVM,
    OutcomeDensity,
    PipelineConfig,
    backaction,
    heterodyne,
    homodyne,
    marginal,
    outcome_density,
    sample_outcomes,
    simulate_pipeline,
)
from .torontonian import TorontonianResult, torontonian, torontonian_series

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
