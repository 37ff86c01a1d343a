"""Differentially private formation control: noisy consensus dynamics,
Gaussian-mechanism noise calibration, spectral and Markov-chain performance
bounds, privacy design thresholds, and sensitivity analysis."""

from .graphs import (
    NumericalError,
    PerronMatrix,
    StepSizeTooLarge,
    WeightedGraph,
    algebraic_connectivity,
    build_perron,
    build_standard_topology,
    is_connected,
    topology_lambda2,
)
from .privacy import (
    PrivacyParams,
    kappa,
    noise_scale,
    q_inverse,
)
from .dynamics import (
    EssEstimate,
    averaging_window,
    estimate_ess,
    noise_covariance,
    noise_gain,
    run_trials,
)
from .bounds import (
    BoundReport,
    ThresholdCell,
    bound_report,
    corollary1_bound,
    epsilon_threshold_closed_form,
    epsilon_threshold_numeric,
    exact_ess_oracle,
    lemma7_sandwich,
    reproduce_table1,
    theorem1_bound,
    threshold_cell,
)
from .config import ConfigError, RunConfig, demo_config
from .sensitivity import (
    CutoffReport,
    SensitivityReport,
    sensitivity_compare,
    theorem3_thresholds,
)

__version__ = "0.1.0"
