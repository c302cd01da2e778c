"""Maximum-likelihood angle estimation with the channel gain concentrated out.

For a candidate angle theta the noiseless unit-gain model is
z_t(theta) = w_t^H a(theta) * s_t.  The best-fitting complex gain has the
closed form h_hat = z^H y / ||z||^2, which reduces the negative
log-likelihood to

    cost(theta) = ||y||^2 - |z(theta)^H y|^2 / ||z(theta)||^2.

The estimate is the argmin over a uniform grid spanning [-90, 90] followed by
one parabolic refinement around the winning grid point.

The search scores exactly only the grid cells that a bound cannot rule out.
With a(theta) the steering vector and v = W^T (conj(s) * y), z(theta)^H y =
a(theta)^H v is a degree-N trigonometric polynomial p(u) in u = sin(theta),
so |dp/du| <= pi * sum_n n |v_n| bounds |z^H y| between scored nodes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .signal_model import PilotSequence, ProbeSchedule

DEFAULT_GRID_STEP_DEG = 0.05
# the finest grid: 180,001 angles, about 50 MB of responses
MIN_GRID_STEP_DEG = 0.001
# Bytes of product and cost rows per estimate_batch block (48 rows at 0.05 deg)
_BLOCK_BYTES = 4 << 20
# Columns per pruning cell.  OpenBLAS's zgemm (0.3.31, Haswell kernel) gives
# every column of ys @ R[:, a:b] the bits of the full product when a is a
# multiple of 16 and b - a is a multiple of 16, or b is the last column and
# b - a >= 2 (one column takes the matrix-vector path), so runs of cells can
# be scored apart from the rest of the grid; tests/test_estimator.py checks it.
_CELL_COLUMNS = 16
# a cell is pruned when its bound lies this far (relative to ||y||^2) below
# the best node, which covers the rounding of the coarse pass and ties in
# ||y||^2 - |z^H y|^2 / ||z||^2
_PRUNE_MARGIN = 1e-12


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
    if not MIN_GRID_STEP_DEG <= grid_step_deg <= 10.0:
        raise ValueError(
            f"grid_step_deg must lie in [{MIN_GRID_STEP_DEG}, 10], got {grid_step_deg!r}"
        )


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

        # Pruning cells: cell c spans the columns between nodes c and c + 1,
        # nodes being every _CELL_COLUMNS-th column and the last one; it is
        # scored as the columns from node c up to node c + 1 (the last cell
        # up to the end of the grid).  Its bound covers one column more on
        # each side, so a scored argmin always has its neighbours scored.
        g = len(self.angles_deg)
        nodes = np.minimum(np.arange(0, g + _CELL_COLUMNS - 1, _CELL_COLUMNS), g - 1)
        self._nodes_h = np.ascontiguousarray(self._responses_h[:, nodes])
        self._cell_edges = np.r_[nodes[:-1], g]
        # v = W^T (conj(s) * y) = y @ _poly, and pi * sum_n n |v_n| = |v| @ _orders
        self._poly = schedule.combiners * self.symbols.conj()[:, None]
        self._orders = np.pi * np.arange(1, n + 1)
        # farthest u = sin(theta) of a cell's stretched columns from its nearer node
        u = np.sin(np.deg2rad(self.angles_deg))
        du = np.diff(u)
        self._cell_reach = np.maximum.reduce(
            [0.5 * np.diff(u[nodes]), np.r_[0.0, du][nodes[:-1]], np.r_[du, 0.0][nodes[1:]]]
        )
        # 1 / (smallest non-zero ||z||^2 over each cell's stretched columns),
        # 0 where they are all zero; likewise per node
        nonzero = np.where(self.norms2 > 0.0, self.norms2, np.inf)
        near = np.minimum(nonzero, np.minimum(np.r_[nonzero[1:], np.inf], np.r_[np.inf, nonzero[:-1]]))
        lowest = np.minimum(np.minimum.reduceat(near, nodes[:-1]), near[nodes[1:]])
        self._inv_cell_norms2 = 1.0 / lowest
        self._inv_node_norms2 = 1.0 / nonzero[nodes]

    @property
    def step_deg(self) -> float:
        return float(self.angles_deg[1] - self.angles_deg[0])

    def costs(self, y: np.ndarray) -> np.ndarray:
        """Cost at every grid angle for a single observation vector."""
        return self.costs_batch(y[None, :])[0]

    def costs_batch(self, ys: np.ndarray) -> np.ndarray:
        """Cost matrix (batch x grid) for a batch of observation vectors."""
        n, g = len(ys), len(self.angles_deg)
        whole = np.array([[0, g]])
        return self._costs_into(ys, whole, np.empty(n * g, dtype=complex), np.empty((n, g)))

    def _costs_into(self, ys, runs, prod, costs):
        """Costs at the grid columns of the (lo, hi) ``runs``, in order, into
        the caller's (batch x columns) ``costs``; returns it.

        Each run is one product into the flat scratch ``prod``, which must
        hold batch x run-length entries.
        """
        rows, at = len(ys), 0
        for lo, hi in runs.tolist():
            span = prod[: rows * (hi - lo)].reshape(rows, hi - lo)
            part = costs[:, at : at + hi - lo]
            np.matmul(ys, self._responses_h[:, lo:hi], out=span)
            np.abs(span, out=part)
            np.square(part, out=part)
            np.divide(part, self._safe_norms2[lo:hi], out=part)
            part[:, self._zero_norm[lo:hi]] = 0.0
            at += hi - lo
        total = np.sum(np.abs(ys) ** 2, axis=1)
        return np.subtract(total[:, None], costs, out=costs)

    def _live_runs(self, ys, prod, buf):
        """The (lo, hi) column runs, in grid order, that may hold a row's
        grid argmin or one of its neighbours: runs of whole cells, each kept
        when its bound on |z^H y|^2 / ||z||^2 for some row comes within the
        margin of that row's best node.  Works in the flat scratch ``prod``
        and ``buf``."""
        rows, m = len(ys), len(self._inv_node_norms2)
        amp, proj = buf[: 2 * rows * m].reshape(2, rows, m)
        bound, reach = buf[2 * rows * m : 2 * rows * (2 * m - 1)].reshape(2, rows, m - 1)
        np.abs(np.matmul(ys, self._nodes_h, out=prod[: rows * m].reshape(rows, m)), out=amp)
        np.multiply(amp, amp, out=proj)
        proj *= self._inv_node_norms2
        total = np.sum(np.abs(ys) ** 2, axis=1)
        best = np.max(proj, axis=1) - _PRUNE_MARGIN * total
        slope = np.abs(ys @ self._poly) @ self._orders
        np.maximum(amp[:, :-1], amp[:, 1:], out=bound)
        np.multiply(slope[:, None], self._cell_reach, out=reach)
        bound += reach
        bound *= bound
        bound *= self._inv_cell_norms2
        # a NaN bound or best keeps the cell
        live = np.concatenate(([False], ~np.all(bound < best[:, None], axis=0), [False]))
        return self._cell_edges[np.flatnonzero(live[1:] != live[:-1])].reshape(-1, 2)

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
        matrix-vector path and rounds differently.  Each block scores only
        the cells that some row's bound keeps, with the bits of the dense
        costs there, so the argmin and its neighbours are the dense ones.
        """
        n, g = len(ys), len(self.angles_deg)
        block = max(2, _BLOCK_BYTES // (24 * g))
        bounds = [lo for lo in range(0, n, block) if lo == 0 or n - lo > 1] + [n]
        prod = np.empty(min(n, block + 1) * g, dtype=complex)
        buf = np.empty(len(prod))
        out = np.empty(n)
        for lo, hi in zip(bounds, bounds[1:]):
            runs = self._live_runs(ys[lo:hi], prod, buf)
            ends = np.cumsum(runs[:, 1] - runs[:, 0])
            costs = buf[: (hi - lo) * ends[-1]].reshape(hi - lo, ends[-1])
            self._costs_into(ys[lo:hi], runs, prod, costs)
            at = np.argmin(costs, axis=1)
            # the grid column of each compact argmin
            run = np.searchsorted(ends, at, side="right")
            idx = at + (runs[run, 1] - ends[run])
            theta = self.angles_deg[idx]
            rows = np.nonzero((idx > 0) & (idx < g - 1))[0]
            ii = at[rows]
            cm, c0, cp = (costs[rows, ii + k] for k in (-1, 0, 1))
            denom = cm - 2.0 * c0 + cp
            ok = denom > 0.0
            offset = np.zeros(len(rows))
            offset[ok] = np.clip(0.5 * (cm[ok] - cp[ok]) / denom[ok], -0.5, 0.5)
            theta[rows] = theta[rows] + offset * self.step_deg
            out[lo:hi] = theta
        return out
