"""Maximum-likelihood angle estimation with the channel gain concentrated out.

For a candidate angle theta the noiseless unit-gain model is
z_t(theta) = w_t^H a(theta) * s_t.  The best-fitting complex gain has the
closed form h_hat = z^H y / ||z||^2, which reduces the negative
log-likelihood to

    cost(theta) = ||y||^2 - |z(theta)^H y|^2 / ||z(theta)||^2.

The estimate is the argmin over a uniform grid spanning [-90, 90] followed by
one parabolic refinement around the winning grid point.

The search scores exactly, in each frame, only the grid cells that the
frame's own bound cannot rule out.  With zh = z / ||z||, every column of a
cell is the chord between its nodes' zh plus a residual e (a column one past
a node: that node's zh plus a step e), so |zh^H y| <= max over the nodes of
|zh^H y| + max ||e|| * ||y||, where max ||e|| is read off the grid itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .signal_model import PilotSequence, ProbeSchedule

DEFAULT_GRID_STEP_DEG = 0.05
# the finest grid: 180,001 angles, about 50 MB of responses
MIN_GRID_STEP_DEG = 0.001
# Scratch bytes of estimate_batch: a sixteenth for a block's keep table and
# gathered rows (526 rows at 0.05 deg), the rest at 32 bytes a kept entry,
# in whole grid rows (33 at 0.05 deg), for a part's products and costs (24)
# and index tables (under 8)
_BLOCK_BYTES = 4 << 20
# Columns per pruning cell.  OpenBLAS's zgemm (0.3.31, Haswell kernel) gives
# every column of ys @ R[:, a:b] the bits of the full product when a is a
# multiple of 16 and b - a is a multiple of 16, or b is the last column and
# b - a >= 2 (one column takes the matrix-vector path), so runs of cells can
# be scored apart from the rest of the grid; tests/test_estimator.py checks it.
# The search reads a slot's flags as whole 8-byte words, so it is a multiple of 8.
_CELL_COLUMNS = 16
# a cell is pruned when its bound lies this far (relative to ||y||^2) below
# the best node, which covers the rounding of the coarse pass and ties in
# ||y||^2 - |z^H y|^2 / ||z||^2
_PRUNE_MARGIN = 1e-12
# A block scores the union of its rows' kept cells in every row when that is
# at most this many times the pairs they keep, so that its products are one
# (rows x kept columns) matrix scored like costs_batch's, with no reordering
# by row.  Strong-signal blocks keep all or nearly all of their union's
# cells (1.0-1.04 times on the auth benchmarks at the reference seed),
# weaker ones 1.3-2.1 times, noise-only blocks one cell in 30-33 of it.
# Scoring such blocks by row instead costs 20-30% more time on signal
# batches and 1.5 MB more peak RSS on the auth-far benchmark (BENCH_10.json).
_UNION_SCORE = 1.25


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
    if isinstance(grid_step_deg, bool) or not MIN_GRID_STEP_DEG <= grid_step_deg <= 10.0:
        raise ValueError(
            f"grid_step_deg must lie in [{MIN_GRID_STEP_DEG}, 10], got {grid_step_deg!r}"
        )


def _score(costs, norms2, orthogonal, total):
    """The costs ||y||^2 - |z^H y|^2 / ||z||^2, in place over the |z^H y|
    values ``costs`` (rows x columns): ``norms2`` holds the columns' ||z||^2
    (1 where it is 0), ``orthogonal`` marks the zero-norm columns, where
    the cost is ||y||^2, and ``total`` is each row's ||y||^2."""
    np.square(costs, out=costs)
    np.divide(costs, norms2, out=costs)
    np.copyto(costs, 0.0, where=orthogonal)
    return np.subtract(total[:, None], costs, out=costs)


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
        self._responses_h = self.responses.conj().T

        # Pruning cells: cell c spans the columns between nodes c and c + 1,
        # nodes being every _CELL_COLUMNS-th column and the last one; it is
        # scored as the columns from node c up to node c + 1 (the last cell
        # up to the end of the grid).  Its bound covers one column more on
        # each side, so a scored argmin always has its neighbours scored.
        g = len(self.angles_deg)
        nodes = np.minimum(np.arange(0, g + _CELL_COLUMNS - 1, _CELL_COLUMNS), g - 1)
        self._nodes_h = np.ascontiguousarray(self._responses_h[:, nodes])
        # 1 / ||z||, 0 where ||z|| = 0, so that zh = z / ||z|| is 0 there
        inv_norms = np.divide(1.0, np.sqrt(self.norms2), out=np.zeros(g), where=self.norms2 > 0.0)
        self._inv_node_norms = inv_norms[nodes]
        # Column j of cell [a, b] is the chord ((b - j) zh_a + (j - a) zh_b) /
        # (b - a) plus a residual, and column a - 1 (b + 1) is zh_a (zh_b) plus
        # a step; the cell's reach is the largest residual or step norm, so
        # that |zh_j^H y| <= max(|zh_a^H y|, |zh_b^H y|) + reach * ||y||.  It is
        # built one column offset at a time, with room for rounding.
        a, b = nodes[:-1], nodes[1:]
        za, zb = (self.responses[c] * inv_norms[c, None] for c in (a, b))
        reach = np.zeros(len(a))
        for k in range(-1, _CELL_COLUMNS + 1):
            cols = np.clip(np.minimum(a + k, b + 1), 0, g - 1)
            t = np.clip(k / (b - a), 0.0, 1.0)[:, None]
            residual = self.responses[cols] * inv_norms[cols, None] - (1.0 - t) * za - t * zb
            np.maximum(reach, np.linalg.norm(residual, axis=1), out=reach)
        self._cell_reach = reach * (1.0 + 1e-9)
        # Slots: the grid padded to whole _CELL_COLUMNS-wide slots, slot k
        # holding columns k * _CELL_COLUMNS onwards; slot k belongs to cell k,
        # and any slot past the last cell to the last cell, which spans 17
        # columns when the grid is 16j + 1 wide.  Padding columns score like
        # zero-norm ones, as ||y||^2, after every real column of their row.
        slots = -(-g // _CELL_COLUMNS)
        pad = slots * _CELL_COLUMNS - g
        self._slot_norms2 = np.r_[np.where(self.norms2 > 0.0, self.norms2, 1.0), np.ones(pad)].reshape(slots, _CELL_COLUMNS)
        self._slot_orthogonal = np.r_[self.norms2 == 0.0, np.ones(pad, dtype=bool)].reshape(slots, _CELL_COLUMNS)

    @property
    def step_deg(self) -> float:
        return float(self.angles_deg[1] - self.angles_deg[0])

    def costs(self, y: np.ndarray) -> np.ndarray:
        """Cost at every grid angle for a single observation vector: its row
        of :meth:`costs_batch` on any batch.  A one-row product takes BLAS's
        matrix-vector path and rounds differently, so the frame is scored
        as two identical rows, as :meth:`_search` scores a one-row part."""
        return self.costs_batch(np.stack([y, y]))[0]

    def costs_batch(self, ys: np.ndarray) -> np.ndarray:
        """Cost matrix (batch x grid) for a batch of observation vectors."""
        g = len(self.angles_deg)
        costs = np.abs(ys @ self._responses_h)
        total = np.sum(np.abs(ys) ** 2, axis=1)
        return _score(costs, self._slot_norms2.ravel()[:g], self._slot_orthogonal.ravel()[:g], total)

    def _bounds(self, ys, total, prod, buf):
        """Per-row bounds on |z^H y|^2 / ||z||^2 over each cell's stretched
        columns (rows x cells) and each row's best node less the pruning
        margin, for rows of energy ``total``.  Works in the flat scratch
        ``prod`` (rows x nodes complex entries) and ``buf`` (rows x (nodes +
        cells) floats); the bounds are a view of ``buf``."""
        rows, m = len(ys), len(self._inv_node_norms)
        nodes = prod[: rows * m].reshape(rows, m)
        amp = buf[: rows * m].reshape(rows, m)
        bound = buf[rows * m : rows * (2 * m - 1)].reshape(rows, m - 1)
        np.abs(np.matmul(ys, self._nodes_h, out=nodes), out=amp)
        amp *= self._inv_node_norms
        best = np.max(amp, axis=1) ** 2 - _PRUNE_MARGIN * total
        # the node products are spent: their memory holds reach * ||y||
        spare = prod.view(np.float64)[: rows * (m - 1)].reshape(rows, m - 1)
        reach = np.multiply(np.sqrt(total)[:, None], self._cell_reach, out=spare)
        np.maximum(amp[:, :-1], amp[:, 1:], out=bound)
        bound += reach
        bound *= bound
        return bound, best

    def _search(self, ys, keep, total, prod, buf, picked):
        """Refined angles of the rows of ``ys``, of energy ``total``, scoring
        each row only in the slots ``keep`` (rows x slots) marks for it.

        Consecutive slots kept by the same rows form a run, scored as one
        product on those rows: a slice of ``ys`` when every row keeps it, else
        rows gathered into ``picked``.  A one-row product takes BLAS's
        matrix-vector path and rounds differently, so a lone row, of ``ys``
        or of a run, is scored as two identical rows.  The runs' products lie
        one after the other in the flat scratch ``prod``, which has room for
        the kept slots plus two rows of slots.  Their costs, in ``buf``, are
        then put in row order, each row's kept slots in grid order, so that a
        row's argmin and its neighbours are adjacent.
        """
        if len(ys) == 1:
            return self._search(ys[[0, 0]], keep[[0, 0]], total[[0, 0]], prod, buf, picked)[:1]
        rows, slots = keep.shape
        g, w = len(self.angles_deg), _CELL_COLUMNS
        by_slot = np.ascontiguousarray(keep.T)
        edges = np.flatnonzero(np.concatenate(([True], np.any(by_slot[1:] != by_slot[:-1], axis=1), [True])))
        starts, lengths = edges[:-1], np.diff(edges)
        # each run's rows, run by run: heads // rows is the run, heads % rows the row
        heads = np.flatnonzero(by_slot[starts])
        bounds = np.searchsorted(heads, rows * np.arange(len(starts) + 1))
        counts = np.diff(bounds)
        sizes = counts * lengths
        first = np.cumsum(sizes) - sizes
        used = int(np.sum(sizes))
        # when every row keeps the same slots, each run writes its columns of
        # one (rows x kept columns) matrix; else the runs lie one after another
        same = bool(np.all(counts[counts > 0] == rows))
        # the gathered runs' rows, a lone row twice, gathered into ``picked``
        # as many runs at a time as it holds
        gathered = (counts > 0) & (counts < rows)
        taken = np.repeat(heads % rows, np.where(gathered, 1 + (counts == 1), 0)[heads // rows])
        ends = np.cumsum(np.where(gathered, np.maximum(counts, 2), 0))
        base, top = 0, 0
        for lo, length, k, at, end in zip(starts.tolist(), lengths.tolist(), counts.tolist(), first.tolist(), ends.tolist()):
            if k == rows:
                a = ys
            elif k:
                if end > top:
                    base, top = end - max(k, 2), min(len(taken), end - max(k, 2) + len(picked))
                    np.take(ys, taken[base:top], axis=0, out=picked[: top - base], mode="clip")
                a = picked[end - max(k, 2) - base : end - base]
            else:
                continue
            stop = min((lo + length) * w, g)
            if same:
                span = prod[: used * w].reshape(rows, -1)[:, at // rows * w : (at // rows + length) * w]
            else:
                span = prod[at * w : (at + len(a) * length) * w].reshape(len(a), length * w)
            np.matmul(a, self._responses_h[:, lo * w : stop], out=span[:, : stop - lo * w])
            # the last slot's padding columns, which no product writes
            span[:, stop - lo * w :] = 0.0
        costs = np.abs(prod[: used * w], out=buf[: used * w])
        if same:
            # the costs are already in row order: score them as costs_batch
            # scores the whole grid
            kept_slots = np.flatnonzero(keep[0])
            norms2, orthogonal = self._slot_norms2[kept_slots].ravel(), self._slot_orthogonal[kept_slots].ravel()
            costs = _score(costs.reshape(rows, -1), norms2, orthogonal, total)
            flat = np.argmin(costs, axis=1)
            idx = w * kept_slots[flat // w] + flat % w
            flat += np.arange(rows) * costs.shape[1]
        else:
            # put the costs in row order: the pair (r, k) lies in its run
            # after the run's earlier rows' slots and r's earlier slots of
            # the run.  The products are spent, so their memory takes the
            # costs and then the norms.  Whole slots move as single void
            # items, which np.take copies fastest.
            kept_rows, kept_slots = np.divmod(np.flatnonzero(keep), slots)
            run = np.repeat(np.arange(len(starts)), lengths)[kept_slots]
            rank = np.searchsorted(heads, rows * run + kept_rows) - bounds[run]
            order = (first - starts)[run] + rank * lengths[run] + kept_slots
            whole = np.dtype((np.void, w * costs.itemsize))
            costs = np.take(costs.view(whole), order, out=prod.view(whole)[:used], mode="clip")
            norms = np.take(self._slot_norms2.view(whole).ravel(), kept_slots, out=buf.view(whole)[:used], mode="clip")
            norms2 = norms.view(np.float64).reshape(used, w)
            costs = _score(costs.view(np.float64).reshape(used, w), norms2, self._slot_orthogonal[kept_slots], total[kept_rows])
            # each row's first minimum, as a dense argmin: its first cost
            # equal to the row's least; found by slot (its flags read as
            # w // 8 words, which takes less memory than listing every tie
            # of a flat row), then within the slot
            row_first = np.searchsorted(kept_rows, np.arange(rows))
            row_low = np.minimum.reduceat(costs.ravel(), w * row_first)
            hit = np.equal(costs, row_low[kept_rows][:, None])
            words = np.ascontiguousarray(hit.view(np.uint64).T)
            hits = np.flatnonzero(np.bitwise_or.reduce(words, axis=0))
            at = hits[np.searchsorted(hits, row_first)]
            flat = w * at + np.argmax(hit[at], axis=1)
            idx = w * kept_slots[at] + flat % w
        costs = costs.ravel()
        theta = self.angles_deg[idx]
        inner = np.flatnonzero((idx > 0) & (idx < g - 1))
        cm, c0, cp = (costs[flat[inner] + k] for k in (-1, 0, 1))
        denom = cm - 2.0 * c0 + cp
        ok = denom > 0.0
        offset = np.zeros(len(inner))
        offset[ok] = np.clip(0.5 * (cm[ok] - cp[ok]) / denom[ok], -0.5, 0.5)
        theta[inner] = theta[inner] + offset * self.step_deg
        return theta

    def estimate(self, y: np.ndarray) -> AoaEstimate:
        """The :meth:`estimate_batch` angle of one frame, with the exact
        cost and least-squares gain at that angle."""
        theta = float(self.estimate_batch(y[None, :])[0])
        z = self.schedule.beam_gains(theta) * self.symbols
        h = gain_hat(z, y)
        return AoaEstimate(theta, float(np.sum(np.abs(y - h * z) ** 2)), h)

    def _block_shape(self, ys):
        """The kept entries a part scores at most, the rows of one block and
        the rows of one coarse step, as _BLOCK_BYTES divides the scratch; a
        step's bounds fit the scratch of ``budget`` entries."""
        slots, w = self._slot_norms2.shape
        block = max(2, _BLOCK_BYTES // 16 // (slots + ys.itemsize * ys.shape[1]))
        budget = max(2, (_BLOCK_BYTES - _BLOCK_BYTES // 16) // (32 * slots * w)) * slots * w
        step = max(2, min(block, budget // (2 * len(self._inv_node_norms) - 1)))
        return budget, block, step

    def estimate_batch(self, ys: np.ndarray) -> np.ndarray:
        """Refined angle estimates for a batch of observations: the grid
        argmin (lowest angle wins ties) plus one parabolic refinement.

        Returns only the angles, and raises ValueError on a frame whose
        energy ||y||^2 is not finite: one holding a NaN or an infinity, or
        entries so large (about 1e154) that their squares overflow.  Each
        row scores exactly only the cells its own bound keeps, or its
        block's union of them when that is barely more, with the bits of
        the dense costs there, so that its argmin and the argmin's
        neighbours are the dense ones.  Rows are bounded in steps, then
        scored in parts of whole rows whose kept cells fit the scratch.
        """
        n, (slots, w), cells = len(ys), self._slot_norms2.shape, len(self._cell_reach)
        # finite energies leave no cost or bound NaN: a cost is at worst -inf
        with np.errstate(over="ignore"):
            total = np.sum(np.abs(ys) ** 2, axis=1)
        bad = np.flatnonzero(~np.isfinite(total))
        if len(bad):
            raise ValueError(f"frame {bad[0]} is not finite or too large: ||y||^2 = {total[bad[0]]!r}")
        # Scratch for the products and costs of ``budget`` kept entries.  A
        # block's rows are bounded ``step`` rows at a time in the same
        # memory, then scored together.
        budget, block, step = self._block_shape(ys)
        prod = np.empty(budget + 2 * slots * w, dtype=complex)
        buf = np.empty(budget + slots * w)
        keep = np.empty((min(n, block), slots), dtype=bool)
        picked = np.empty((max(2, len(keep)), ys.shape[1]), dtype=ys.dtype)
        out = np.empty(n)
        for lo in range(0, n, block):
            rows = min(n - lo, block)
            kept = keep[:rows]
            for a in range(0, rows, step):
                b = min(rows, a + step)
                bound, best = self._bounds(ys[lo + a : lo + b], total[lo + a : lo + b], prod, buf)
                np.greater_equal(bound, best[:, None], out=kept[a:b, :cells])
            # slots past the last cell follow it
            kept[:, cells:] = kept[:, cells - 1 : cells]
            union = np.any(kept, axis=0)
            if rows * np.count_nonzero(union) <= _UNION_SCORE * np.count_nonzero(kept):
                kept[:] = union
            # parts of whole rows: rows a to b - 1 keep ends[b] - ends[a] slots
            ends = np.r_[0, np.cumsum(np.count_nonzero(kept, axis=1))]
            a = 0
            while a < rows:
                b = max(a + 1, int(np.searchsorted(ends, ends[a] + budget // w, side="right")) - 1)
                out[lo + a : lo + b] = self._search(ys[lo + a : lo + b], kept[a:b], total[lo + a : lo + b], prod, buf, picked)
                a = b
        return out
