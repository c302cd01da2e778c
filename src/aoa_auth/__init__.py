"""Angle-of-arrival physical-layer authentication simulator."""

from .attacks import (
    AttackContext,
    AttackKind,
    attack_pilots,
    code_based_attack,
    location_based_attack,
    random_attack,
)
from .config import ConfigError, Scenario
from .estimator import AoaEstimate, CostCurve, ResponseGrid, gain_hat
from .harness import (
    derive_trial_rng,
    eve_pilots,
    run_auth_sweep,
    run_cost_curve_experiment,
    run_estimate,
    run_rmse_sweep,
)
from .metrics import ConfusionCounts, accuracy, p_fa, p_md, rmse
from .ocsvm import OcsvmModel, OcsvmParams, train
from .signal_model import (
    ArrayConfig,
    NodeGeometry,
    PilotSequence,
    ProbeSchedule,
    channel_amplitude,
    noise_variance,
    received_signal,
    steering_vector,
    synthesize_observation,
)

__version__ = "0.1.0"
