"""Scenario configuration: a flat key-value document with a strict schema.

Defaults reproduce the reference operating point: a 2.5 GHz, 20 MHz, 10 dBm
link; a 16-antenna verifier sweeping 17 uniform beams; the legitimate node at
10 m broadside; and the attacker swept over a distance/angle grid.  Unknown
keys are errors so typos fail fast.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

from .attacks import AttackKind
from .ocsvm import MEDIAN_HEURISTIC, OcsvmParams
from .signal_model import ArrayConfig, NodeGeometry, PilotSequence, ProbeSchedule


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value; message names the field."""


DEFAULT_EVE_DISTANCES_M = [
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0,
    200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 2000.0,
]
DEFAULT_EVE_AOAS_DEG = [5.0, 20.0, 30.0, 45.0, 60.0]


def _float_entries(name: str, values) -> list:
    """``values`` as a non-empty list of finite floats, so that 45 and 45.0
    name the same sweep point, hash alike and seed the same streams."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{name} must be a non-empty list of numbers")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ConfigError(f"{name} entries must be finite numbers, got {v!r}")
    return [float(v) for v in values]


@dataclass
class Scenario:
    # array / link budget
    num_antennas: int = 16
    carrier_freq_hz: float = 2.5e9
    bandwidth_hz: float = 20e6
    noise_psd_dbm_hz: float = -174.0
    tx_power_dbm: float = 10.0
    # probe schedule
    num_probes: int = 17
    # geometry
    alice_distance_m: float = 10.0
    alice_aoa_deg: float = 0.0
    eve_distances_m: list = field(default_factory=lambda: list(DEFAULT_EVE_DISTANCES_M))
    eve_aoas_deg: list = field(default_factory=lambda: list(DEFAULT_EVE_AOAS_DEG))
    # attack under test
    attack: str = "location-based"
    # Monte-Carlo sizes
    trials: int = 1000
    train_size: int = 1000
    test_size: int = 20_000
    repetitions: int = 10
    master_seed: int = 20240
    # verifier
    nu: float = 0.015
    gamma: float | str = MEDIAN_HEURISTIC
    solver_tol: float = 1e-6
    max_iters: int = 100_000
    grid_step_deg: float = 0.05

    def validate(self) -> None:
        """Raise ConfigError naming the first unusable field; the sweep lists
        are turned into lists of floats and the attack into its canonical
        name."""
        if self.num_probes <= 1:
            raise ConfigError("num_probes must be > 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.train_size < 2:
            raise ConfigError("train_size must be >= 2")
        if self.test_size < 1:
            raise ConfigError("test_size must be >= 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        self.eve_distances_m = _float_entries("eve_distances_m", self.eve_distances_m)
        self.eve_aoas_deg = _float_entries("eve_aoas_deg", self.eve_aoas_deg)
        if not 0.0 < self.grid_step_deg <= 10.0:
            raise ConfigError("grid_step_deg must lie in (0, 10]")
        if (isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int)
                or not 0 <= self.master_seed < 2**64):
            # derive_trial_rng masks seeds to 64 bits: -1 would alias 2**64 - 1
            raise ConfigError(
                f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}"
            )
        if not isinstance(self.attack, str):
            raise ConfigError(f"attack must be a string, got {self.attack!r}")
        try:
            self.attack = AttackKind.from_string(self.attack).value
        except ValueError as e:
            raise ConfigError(f"attack: {e}")
        try:
            self.array_config()
            self.alice_geometry()
            self.ocsvm_params()
        except ValueError as e:
            raise ConfigError(str(e))
        for d in self.eve_distances_m:
            if d <= 0:
                raise ConfigError("eve_distances_m entries must be positive")
        for a in self.eve_aoas_deg:
            if not -90.0 < a < 90.0:
                raise ConfigError("eve_aoas_deg entries must lie in (-90, 90)")

    # typed views consumed by the simulator ------------------------------

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            num_antennas=self.num_antennas,
            carrier_freq_hz=self.carrier_freq_hz,
            bandwidth_hz=self.bandwidth_hz,
            noise_psd_dbm_hz=self.noise_psd_dbm_hz,
            tx_power_dbm=self.tx_power_dbm,
        )

    def schedule(self) -> ProbeSchedule:
        return ProbeSchedule.uniform(self.num_probes, self.num_antennas)

    def alice_geometry(self) -> NodeGeometry:
        return NodeGeometry(self.alice_distance_m, self.alice_aoa_deg)

    def alice_pilots(self) -> PilotSequence:
        return PilotSequence.constant(self.num_probes)

    def attack_kind(self) -> AttackKind:
        return AttackKind.from_string(self.attack)

    def ocsvm_params(self) -> OcsvmParams:
        return OcsvmParams(
            nu=self.nu,
            gamma=self.gamma,
            solver_tol=self.solver_tol,
            max_iters=self.max_iters,
        )

    # serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        scenario = cls(**data)
        scenario.validate()
        return scenario

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config is not valid JSON: {e}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)
