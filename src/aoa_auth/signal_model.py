"""Analog-array receive model: steering vectors, beam sweeps, path loss, AWGN.

The verifier has N antennas behind a single RF chain, so spatial information
comes from sweeping T directional combiners across successive pilot slots.
Each slot yields one complex sample

    y_t = sqrt(P) * h * (w_t^H a(theta)) * s_t + n_t

with h the complex channel gain (free-space amplitude, uniform random phase
per frame) and n_t circularly-symmetric AWGN.  All angles at module interfaces
are in degrees; radians appear only inside trigonometric kernels.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def _watts(dbm: float) -> float:
    """The power of ``dbm`` in watts, inf where that overflows a float."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ArrayConfig:
    """Verifier array and link-budget parameters."""

    num_antennas: int = 16
    carrier_freq_hz: float = 2.5e9
    bandwidth_hz: float = 20e6
    noise_psd_dbm_hz: float = -174.0
    tx_power_dbm: float = 10.0

    def __post_init__(self):
        if self.num_antennas <= 1:
            raise ValueError("num_antennas must be > 1")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        # -inf dBm is 0 W; NaN fails every comparison
        if not self.tx_power_watts < math.inf:
            raise ValueError(f"tx_power_dbm must give a finite power in watts, got {self.tx_power_dbm!r}")
        if not noise_variance(self) < math.inf:
            raise ValueError(f"noise_psd_dbm_hz and bandwidth_hz must give a finite noise power N0*W, got {noise_variance(self)!r}")

    @property
    def tx_power_watts(self) -> float:
        return _watts(self.tx_power_dbm)


@dataclass(frozen=True)
class NodeGeometry:
    """A transmitter's position relative to the verifier at the origin."""

    distance_m: float
    aoa_deg: float

    def __post_init__(self):
        if not 0.0 < self.distance_m < np.inf:
            raise ValueError(f"distance_m must be finite and positive, got {self.distance_m!r}")
        if not -90.0 < self.aoa_deg < 90.0:
            raise ValueError(f"aoa_deg must lie in (-90, 90), got {self.aoa_deg!r}")


def steering_vector(aoa_deg: float, n_antennas: int) -> np.ndarray:
    """Array response to a plane wave from ``aoa_deg``.

    Entry n (1-indexed) is exp(j*pi*n*sin(theta)); all entries have unit
    modulus.
    """
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    n = np.arange(1, n_antennas + 1)
    return np.exp(1j * np.pi * n * np.sin(np.deg2rad(aoa_deg)))


def channel_amplitude(distance_m: float, carrier_freq_hz: float) -> float:
    """Free-space channel amplitude lambda / (4*pi*d)."""
    if distance_m <= 0:
        raise ValueError("distance_m must be positive")
    wavelength = SPEED_OF_LIGHT / carrier_freq_hz
    return wavelength / (4.0 * np.pi * distance_m)


def noise_variance(config: ArrayConfig) -> float:
    """Total complex noise variance N0*W in watts (N0 given in dBm/Hz)."""
    return _watts(config.noise_psd_dbm_hz) * config.bandwidth_hz


@dataclass(frozen=True)
class ProbeSchedule:
    """The verifier's sweep: T probe angles and the matching directional
    combiners w_t = a(theta_t)."""

    probe_angles_deg: np.ndarray
    combiners: np.ndarray  # shape (T, N)

    def __post_init__(self):
        angles = np.asarray(self.probe_angles_deg, dtype=float)
        combiners = np.asarray(self.combiners, dtype=complex)
        object.__setattr__(self, "probe_angles_deg", angles)
        object.__setattr__(self, "combiners", combiners)
        if angles.ndim != 1 or combiners.ndim != 2:
            raise ValueError("probe_angles_deg must be 1-D and combiners 2-D")
        if len(angles) != combiners.shape[0]:
            raise ValueError("probe_angles_deg and combiners length mismatch")
        if len(angles) <= 1:
            raise ValueError("schedule needs more than one probe")
        if np.any(angles < -90.0) or np.any(angles > 90.0):
            raise ValueError("probe angles must lie in [-90, 90]")
        if not np.allclose(np.abs(combiners), 1.0, atol=1e-9):
            raise ValueError("combiner entries must have unit modulus")

    @classmethod
    def uniform(cls, num_probes: int, n_antennas: int) -> "ProbeSchedule":
        """T directional beams uniformly spanning [-90, 90], both endpoints
        included (spacing 180/(T-1) degrees)."""
        angles = np.linspace(-90.0, 90.0, num_probes)
        combiners = np.stack([steering_vector(a, n_antennas) for a in angles])
        return cls(angles, combiners)

    @property
    def num_probes(self) -> int:
        return len(self.probe_angles_deg)

    @property
    def num_antennas(self) -> int:
        return self.combiners.shape[1]

    def beam_gains(self, aoa_deg: float) -> np.ndarray:
        """Vector of w_t^H a(aoa) over all T probes."""
        a = steering_vector(aoa_deg, self.num_antennas)
        return self.combiners.conj() @ a


@dataclass(frozen=True)
class PilotSequence:
    """T complex transmit symbols with unit total energy."""

    symbols: np.ndarray

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=complex)
        object.__setattr__(self, "symbols", symbols)
        if symbols.ndim != 1:
            raise ValueError("symbols must be a 1-D sequence")
        energy = float(np.sum(np.abs(symbols) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"pilot energy must be 1, got {energy!r}")

    @classmethod
    def constant(cls, t_len: int) -> "PilotSequence":
        """Constant unit-modulus pilot s_t = 1/sqrt(T)."""
        if t_len < 1:
            raise ValueError("t_len must be >= 1")
        return cls(np.full(t_len, 1.0 / np.sqrt(t_len), dtype=complex))

    def __len__(self) -> int:
        return len(self.symbols)


def received_signal(
    schedule: ProbeSchedule,
    geometry: NodeGeometry,
    pilots: PilotSequence,
    config: ArrayConfig,
) -> np.ndarray:
    """Noiseless length-T received vector sqrt(P) * |h| * (w_t^H a(theta)) * s_t
    for one transmitter, at zero channel phase."""
    if len(pilots) != schedule.num_probes:
        raise ValueError("pilot length does not match schedule length")
    amp = np.sqrt(config.tx_power_watts) * channel_amplitude(
        geometry.distance_m, config.carrier_freq_hz
    )
    # an infinite amplitude times an exact-zero beam gain would be a NaN
    if not math.isfinite(amp):
        raise ValueError(
            f"received amplitude {float(amp)!r} is not finite (distance_m="
            f"{geometry.distance_m!r}, carrier_freq_hz={config.carrier_freq_hz!r})"
        )
    return amp * schedule.beam_gains(geometry.aoa_deg) * pilots.symbols


def synthesize_observation(
    signal: np.ndarray,
    noise_var: float,
    count: int,
    rng: np.random.Generator | Iterable[np.random.Generator],
) -> np.ndarray:
    """``count`` received frames e^{j phi} * signal + AWGN, shape (count, T).

    Stream consumption order is part of the contract.  From one Generator,
    the ``count`` channel phases are drawn first, then the real and then the
    imaginary noise of all frames.  From a sequence (or any iterable) of
    ``count`` Generators, frame k draws from the k-th alone: its phase, its
    real row, then its imaginary row -- exactly the draws of a ``count=1``
    call on that stream.
    """
    t = len(signal)
    # a phase is uniform(0, 2 pi): 0 + 2 pi * random(), with the same bits;
    # one scalar random() costs a quarter of one scalar uniform()
    if isinstance(rng, np.random.Generator):
        phases = rng.random(count)
        real, imag = rng.standard_normal((2, count, t))
    else:
        phases = np.empty(count)
        noise = np.empty((count, 2, t))
        # strict: a count that differs from the number of streams is an error
        for k, frame_rng in zip(range(count), rng, strict=True):
            phases[k] = frame_rng.random()
            frame_rng.standard_normal(out=noise[k])
        real, imag = noise[:, 0], noise[:, 1]
    phases *= 2.0 * np.pi
    noise = np.sqrt(noise_var / 2.0) * (real + 1j * imag)
    return np.exp(1j * phases)[:, None] * signal[None, :] + noise
