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
import sys
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackContext, AttackKind, DegenerateAttackError, attack_pilots
from .estimator import check_grid_memory, check_grid_step
from .ocsvm import MEDIAN_HEURISTIC, OcsvmParams
from .signal_model import ArrayConfig, NodeGeometry, PilotSequence, ProbeSchedule, received_signal


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value; message names the field."""


DEFAULT_EVE_DISTANCES_M = [
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0,
    200.0, 250.0, 400.0, 500.0, 750.0, 1000.0, 2000.0,
]
DEFAULT_EVE_AOAS_DEG = [5.0, 20.0, 30.0, 45.0, 60.0]


def _finite(v) -> bool:
    """Whether ``v`` is a real, not a bool, and a finite float once converted."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# field annotation -> (what a value must be, whether v is one, the stored form
# of v).  Floats are stored as floats, so that 45 and 45.0 name the same
# scenario, hash alike and seed the same streams.
_COERCIONS = {
    "int": ("an integer",
            lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), int),
    "float": ("a finite number", _finite, float),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "float | str": ("a finite number or a string", lambda v: isinstance(v, str) or _finite(v),
                    lambda v: v if isinstance(v, str) else float(v)),
    "list[float]": ("a non-empty list of finite numbers",
                    lambda v: isinstance(v, (list, tuple)) and v and all(map(_finite, v)),
                    lambda v: [float(x) for x in v]),
}

# usable range of each count field that no simulator object checks.  An auth
# sweep tests on test_size // 2 frames per side; an OCSVM fit on train_size
# estimates caches at most l kernel rows of l floats, 2 GiB at 16,384 (an
# auth-far fit touches about 200 of 1,000); one sweep point holds trials (or
# test_size) frames, 272 MB at 10^6 of 17 probes.
_LIMITS = {
    "num_probes": (2, math.inf),
    "trials": (1, 10**6),
    "train_size": (2, 16_384),
    "test_size": (2, 10**6),
    "repetitions": (1, math.inf),
}


def node_geometry(distance_m, aoa_deg, distance_name: str, aoa_name: str) -> NodeGeometry:
    """``NodeGeometry(distance_m, aoa_deg)``; its error becomes a ConfigError
    that calls the coordinates by the caller's names for them."""
    try:
        return NodeGeometry(distance_m, aoa_deg)
    except ValueError as e:
        message = str(e).replace("distance_m", distance_name).replace("aoa_deg", aoa_name)
        raise ConfigError(message) from None


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
    eve_distances_m: list[float] = field(default_factory=lambda: list(DEFAULT_EVE_DISTANCES_M))
    eve_aoas_deg: list[float] = field(default_factory=lambda: list(DEFAULT_EVE_AOAS_DEG))
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
        """Raise ConfigError naming the first unusable field.  Each field is
        coerced to its declared type, the attack to its canonical name; every
        physical rule is left to the simulator object that owns it."""
        for f in dataclasses.fields(self):
            what, accepts, coerce = _COERCIONS[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            setattr(self, f.name, coerce(value))
        for name, (low, high) in _LIMITS.items():
            if not low <= getattr(self, name) <= high:
                raise ConfigError(f"{name} must be in [{low}, {high}], got {getattr(self, name)!r}")
        if not 0 <= self.master_seed < 2**64:
            # derive_trial_rng masks seeds to 64 bits: -1 would alias 2**64 - 1
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed!r}")
        try:
            self.attack = AttackKind.from_string(self.attack).value
            self.array_config()
            self.ocsvm_params()
            check_grid_step(self.grid_step_deg)
            check_grid_memory(self.num_antennas, self.num_probes, self.grid_step_deg)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        config, schedule, alice = self.array_config(), self.schedule(), self.alice_pilots()
        senders = [("alice_distance_m", self.alice_geometry(), alice)]
        for theta_e in self.eve_aoas_deg:
            for d_e in self.eve_distances_m:
                node_geometry(d_e, theta_e, "eve_distances_m entries", "eve_aoas_deg entries")
            ctx = AttackContext(schedule, alice, self.alice_aoa_deg, theta_e)
            try:
                pilots = alice if self.attack == "random" else attack_pilots(self.attack_kind(), ctx)[0]
            except DegenerateAttackError as e:
                raise ConfigError(
                    f"num_probes {self.num_probes!r}: the {self.attack} attack from eve_aoas_deg entry "
                    f"{theta_e!r} toward alice_aoa_deg {self.alice_aoa_deg!r} fails: {e}"
                ) from None
            senders.append(("eve_distances_m", NodeGeometry(min(self.eve_distances_m), theta_e), pilots))
        # The link budget: every command refuses a frame whose amplitude is
        # not finite or whose ||y||^2 exceeds the estimator's float_max /
        # (2 max ||z||^2), and ||z||^2 <= N^2 on every grid (|w_t^H a| <= N,
        # unit-energy pilots).  Energy falls as 1/d^2, so Eve is checked at her
        # nearest distance; random pilots have the moduli of Alice's, which
        # stand in for them, so no stream is drawn.
        max_energy = sys.float_info.max / (2.0 * self.num_antennas**2)
        with np.errstate(over="ignore"):
            for name, geometry, pilots in senders:
                try:
                    energy = np.sum(np.abs(received_signal(schedule, geometry, pilots, config)) ** 2)
                except ValueError as e:
                    raise ConfigError(str(e).replace("distance_m", name)) from None
                if not energy <= max_energy:
                    raise ConfigError(f"{name} {geometry.distance_m!r} at {geometry.aoa_deg!r} deg gives noiseless frame energy {float(energy)!r}, above {max_energy!r}")

    # typed views consumed by the simulator ------------------------------

    def _view(self, cls):
        """``cls`` built from the scenario fields of the same names."""
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def array_config(self) -> ArrayConfig:
        return self._view(ArrayConfig)

    def schedule(self) -> ProbeSchedule:
        return ProbeSchedule.uniform(self.num_probes, self.num_antennas)

    def alice_geometry(self) -> NodeGeometry:
        return node_geometry(self.alice_distance_m, self.alice_aoa_deg,
                             "alice_distance_m", "alice_aoa_deg")

    def alice_pilots(self) -> PilotSequence:
        return PilotSequence.constant(self.num_probes)

    def attack_kind(self) -> AttackKind:
        return AttackKind.from_string(self.attack)

    def ocsvm_params(self) -> OcsvmParams:
        return self._view(OcsvmParams)

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
