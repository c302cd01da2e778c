"""Maximum-likelihood angle estimation with the channel gain concentrated out.

For a candidate angle theta the noiseless unit-gain model is
z_t(theta) = w_t^H a(theta) * s_t.  The best-fitting complex gain has the
closed form h_hat = z^H y / ||z||^2, which reduces the negative
log-likelihood to

    cost(theta) = ||y||^2 - |z(theta)^H y|^2 / ||z(theta)||^2.

The estimate is the argmin over a uniform grid spanning [-90, 90] followed by
one parabolic refinement around the winning grid point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .signal_model import PilotSequence, ProbeSchedule

DEFAULT_GRID_STEP_DEG = 0.05
# Bytes of product and cost rows per estimate_batch block (48 rows at 0.05 deg)
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class CostCurve:
    """The ML objective sampled over the angle grid."""

    angles_deg: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        if len(self.angles_deg) != len(self.costs):
            raise ValueError("angles and costs length mismatch")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["angle_deg", "cost"])
            for a, c in zip(self.angles_deg, self.costs):
                writer.writerow([repr(float(a)), repr(float(c))])


@dataclass(frozen=True)
class AoaEstimate:
    theta_hat_deg: float
    cost_at_min: float
    gain_hat: complex


def gain_hat(z: np.ndarray, y: np.ndarray) -> complex:
    """Least-squares complex gain z^H y / ||z||^2 (0 when z is all-zero)."""
    if z.shape != y.shape:
        raise ValueError("z and y length mismatch")
    norm2 = float(np.sum(np.abs(z) ** 2))
    if norm2 == 0.0:
        return 0.0 + 0.0j
    return complex(np.vdot(z, y) / norm2)


def check_grid_step(grid_step_deg: float) -> None:
    """Raise ValueError unless ``grid_step_deg`` is a usable grid step."""
    if not 0.0 < grid_step_deg <= 10.0:
        raise ValueError(f"grid_step_deg must lie in (0, 10], got {grid_step_deg!r}")


class ResponseGrid:
    """Precomputed model responses over the angle grid for one schedule and
    pilot sequence.

    Building the (grid x T) response matrix once turns every cost evaluation
    into a small matrix product, which is what makes the Monte-Carlo sweeps
    tractable.
    """

    def __init__(self, schedule: ProbeSchedule, pilots: PilotSequence, grid_step_deg: float = DEFAULT_GRID_STEP_DEG):
        if len(pilots) != schedule.num_probes:
            raise ValueError("pilot length does not match schedule length")
        self.schedule = schedule
        self.symbols = pilots.symbols
        check_grid_step(grid_step_deg)
        self.angles_deg = np.linspace(-90.0, 90.0, int(round(180.0 / grid_step_deg)) + 1)
        n = schedule.num_antennas
        # (grid x N) steering matrix, rows a(theta_j)
        steer = np.exp(
            1j
            * np.pi
            * np.outer(np.sin(np.deg2rad(self.angles_deg)), np.arange(1, n + 1))
        )
        # rows z(theta_j) = (w_t^H a(theta_j)) s_t
        self.responses = (steer @ schedule.combiners.conj().T) * self.symbols[None, :]
        self.norms2 = np.sum(np.abs(self.responses) ** 2, axis=1)
        self._safe_norms2 = np.where(self.norms2 > 0.0, self.norms2, 1.0)
        self._zero_norm = self.norms2 == 0.0
        self._responses_h = self.responses.conj().T

    @property
    def step_deg(self) -> float:
        return float(self.angles_deg[1] - self.angles_deg[0])

    def costs(self, y: np.ndarray) -> np.ndarray:
        """Cost at every grid angle for a single observation vector."""
        return self.costs_batch(y[None, :])[0]

    def costs_batch(self, ys: np.ndarray) -> np.ndarray:
        """Cost matrix (batch x grid) for a batch of observation vectors."""
        shape = (len(ys), len(self.angles_deg))
        return self._costs_into(ys, np.empty(shape, dtype=complex), np.empty(shape))

    def _costs_into(self, ys, prod, costs):
        """Costs into the caller's (batch x grid) buffers; returns ``costs``."""
        np.matmul(ys, self._responses_h, out=prod)
        np.abs(prod, out=costs)
        np.square(costs, out=costs)
        np.divide(costs, self._safe_norms2, out=costs)
        costs[:, self._zero_norm] = 0.0
        total = np.sum(np.abs(ys) ** 2, axis=1)
        return np.subtract(total[:, None], costs, out=costs)

    def estimate(self, y: np.ndarray) -> AoaEstimate:
        """The :meth:`estimate_batch` angle of one frame, with the exact
        cost and least-squares gain at that angle."""
        theta = float(self.estimate_batch(y[None, :])[0])
        z = self.schedule.beam_gains(theta) * self.symbols
        h = gain_hat(z, y)
        return AoaEstimate(theta, float(np.sum(np.abs(y - h * z) ** 2)), h)

    def estimate_batch(self, ys: np.ndarray) -> np.ndarray:
        """Refined angle estimates for a batch of observations: the grid
        argmin (lowest angle wins ties) plus one parabolic refinement.

        Returns only the angles.  Scored in cache-sized row blocks; a one-row
        tail joins the block before it, as a one-row product takes BLAS's
        matrix-vector path and rounds differently.
        """
        n, g = len(ys), len(self.angles_deg)
        block = max(2, _BLOCK_BYTES // (24 * g))
        bounds = [lo for lo in range(0, n, block) if lo == 0 or n - lo > 1] + [n]
        prod = np.empty((min(n, block + 1), g), dtype=complex)
        buf = np.empty(prod.shape)
        out = np.empty(n)
        for lo, hi in zip(bounds, bounds[1:]):
            costs = self._costs_into(ys[lo:hi], prod[: hi - lo], buf[: hi - lo])
            idx = np.argmin(costs, axis=1)
            theta = self.angles_deg[idx]
            rows = np.nonzero((idx > 0) & (idx < g - 1))[0]
            ii = idx[rows]
            cm, c0, cp = (costs[rows, ii + k] for k in (-1, 0, 1))
            denom = cm - 2.0 * c0 + cp
            ok = denom > 0.0
            offset = np.zeros(len(rows))
            offset[ok] = np.clip(0.5 * (cm[ok] - cp[ok]) / denom[ok], -0.5, 0.5)
            theta[rows] = theta[rows] + offset * self.step_deg
            out[lo:hi] = theta
        return out
