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
cell is the chord between its nodes' zh plus a residual e (the column before
its first node: that node's zh plus a step e), so |zh^H y| <= max over the
nodes of |zh^H y| + max ||e|| * ||y||, where max ||e|| is read off the grid
itself.  The bound only filters, so it runs in float32 on yh = y / ||y|| with
a margin for rounding; a frame whose ||y||^2 is 0 or subnormal keeps every
cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .signal_model import PilotSequence, ProbeSchedule

DEFAULT_GRID_STEP_DEG = 0.05
# the finest grid: 180,001 angles, about 50 MB of responses
MIN_GRID_STEP_DEG = 0.001
# The largest grid: its (g x N) steering matrix, (g x T) responses and the
# (T x N) combiners they are built from, at 16 bytes an entry.  The finest
# step takes 95 MB of them at the default 16 antennas and 17 probes, 369 MB
# at 64 and 64.  A build's peak is about 1.7 times its entries (tracemalloc:
# 163 MB at the finest default grid), so it stays under 1 GB; 100,000
# antennas at the default step would take 5.8 GB.
_MAX_GRID_BYTES = 1 << 29
# Scratch bytes of estimate_batch: a sixteenth for a block's keep table and
# gathered rows (526 rows at 0.05 deg), the rest at 32 bytes a kept entry,
# in whole grid rows (33 at 0.05 deg), for a part's products and costs (24)
# and index tables (under 8); a block's coarse pass runs first in the products'
# and costs' memory, 12 bytes a row and node (1.4 MB at 0.05 deg).  A call
# with a window holds its near columns, 8 bytes a column and probe, and runs
# their float32 product in the products' and costs' memory; it adds a second
# keep table and block of rows (256 KiB) at its first block that both skips
# rows and searches others.
_BLOCK_BYTES = 4 << 20
# Columns per pruning cell.  OpenBLAS's zgemm (0.3.31, SkylakeX kernel) gives
# every column of ys @ R[:, a:b] the bits of the full product when a is a
# multiple of 16 and b - a is a multiple of 16, or b is the last column and
# b - a >= 2 (one column takes the matrix-vector path), so runs of cells can
# be scored apart from the rest of the grid; tests/test_estimator.py checks it.
# The search reads a slot's flags as whole 8-byte words, so it is a multiple of 8.
_CELL_COLUMNS = 16
# A block scores the union of its rows' kept cells in every row when that is
# at most this many times the pairs they keep, so that its products are one
# (rows x kept columns) matrix scored like costs_batch's, with no reordering
# by row.  In the benchmark sweeps at the reference seed, strong-signal
# blocks keep all or nearly all of their union's cells (1.0-1.23 times, 28
# of 68 blocks), weaker ones 1.3-2.4 times (15), a few 3.5-6.3 times and
# noise-only blocks one cell in 13-34 of it.  On those sweeps' estimate_batch
# inputs (rmse-cba in its calls of up to a block; 2-core VM, 21 alternating
# rounds, medians) this rule took auth-lba 122.4 ms, rmse-cba 62.3 and
# auth-far 21.6, and no union at all 124.4, 66.3 and 27.0.  3.0 took 118.8,
# 58.5 and 20.2, but its larger union products raised auth-lba's peak RSS by
# about 1 MB (2%) in the benchmark.
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


def check_grid_memory(num_antennas: int, num_probes: int, grid_step_deg: float) -> None:
    """Raise ValueError unless the steering matrix and responses of a grid
    and its combiners, g (N + T) + T N complex entries, fit in _MAX_GRID_BYTES."""
    g = int(round(180.0 / grid_step_deg)) + 1
    size = 16 * (g * (num_antennas + num_probes) + num_probes * num_antennas)
    if size > _MAX_GRID_BYTES:
        raise ValueError(
            f"num_antennas {num_antennas!r} and num_probes {num_probes!r} at grid_step_deg {grid_step_deg!r} "
            f"need a {g} x ({num_antennas} + {num_probes}) grid and its combiners, {size >> 20} MiB, above {_MAX_GRID_BYTES >> 20} MiB"
        )


def _score(costs, norms2, total):
    """The costs ||y||^2 - |z^H y|^2 / ||z||^2, in place over the |z^H y|
    values ``costs`` (rows x columns): ``norms2`` holds the columns' ||z||^2
    (1 where it is 0) and ``total`` each row's ||y||^2.  Where ||z||^2 is 0
    every |z_t| is below 2^-537.5, so q = |z^H y|^2 <= T 2^-1075 ||y||^2 lies
    far below half an ulp of ||y||^2, and ||y||^2 - q rounds to ||y||^2."""
    np.square(costs, out=costs)
    np.divide(costs, norms2, out=costs)
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
        check_grid_memory(schedule.num_antennas, schedule.num_probes, grid_step_deg)
        self.angles_deg = np.linspace(-90.0, 90.0, int(round(180.0 / grid_step_deg)) + 1)
        n = schedule.num_antennas
        # (grid x N) steering matrix, rows a(theta_j)
        steer = np.exp(1j * np.pi * np.outer(np.sin(np.deg2rad(self.angles_deg)), np.arange(1, n + 1)))
        # rows z(theta_j) = (w_t^H a(theta_j)) s_t
        responses = (steer @ schedule.combiners.conj().T) * self.symbols[None, :]
        norms2 = np.sum(np.abs(responses) ** 2, axis=1)
        self._responses_h = responses.conj().T

        # Pruning cells: cell c spans the columns between nodes c and c + 1,
        # nodes being every _CELL_COLUMNS-th column and the last one; it is
        # scored as the columns from node c up to the one before node c + 1
        # (the last cell up to the end of the grid).  Its bound covers one
        # column more on each side, a - 1 and b for cell [a, b], and so a
        # scored argmin has its neighbours scored: an argmin on node a is
        # the best node, which cells c - 1 and c both bound, and an argmin on
        # b - 1 is column a - 1 of cell c + 1, which that cell's bound covers.
        g = len(self.angles_deg)
        nodes = np.minimum(np.arange(0, g + _CELL_COLUMNS - 1, _CELL_COLUMNS), g - 1)
        # 1 / ||z||, 0 where ||z|| = 0, so that zh = z / ||z|| is 0 there
        inv_norms = np.divide(1.0, np.sqrt(norms2), out=np.zeros(g), where=norms2 > 0.0)
        zh = responses[nodes] * inv_norms[nodes, None]
        self._nodes_h = np.ascontiguousarray(zh.conj().T, dtype=np.complex64)
        # Column j of cell [a, b], a <= j <= b, is the chord ((b - j) zh_a +
        # (j - a) zh_b) / (b - a) plus a residual, and column a - 1 is zh_a
        # plus a step; the cell's reach is the largest residual or step norm,
        # so that |zh_j^H y| <= max(|zh_a^H y|, |zh_b^H y|) + reach * ||y|| for
        # j from a - 1 to b.  It is built one column offset at a time, with
        # room for rounding.
        a, b = nodes[:-1], nodes[1:]
        reach = np.zeros(len(a))
        for k in range(-1, _CELL_COLUMNS + 1):
            cols = np.clip(a + k, 0, b)
            t = np.clip(k / (b - a), 0.0, 1.0)[:, None]
            residual = responses[cols] * inv_norms[cols, None] - (1.0 - t) * zh[:-1] - t * zh[1:]
            np.maximum(reach, np.linalg.norm(residual, axis=1), out=reach)
        # eta bounds the error of a float32 amplitude |zh^H yh| of _bounds
        # (u = 2^-24) against the exact |zh^H y| / ||y||: its real and
        # imaginary parts are 2T-term real inner products of vectors of norm
        # <= 1, each off by at most gamma_2T = 2Tu / (1 - 2Tu) in any order
        # (Higham, 2002, sec. 3.1), and 8u covers the casts to complex64 (2u),
        # abs (2u), float64 rounding and underflow (far below u) and, as 2 eta
        # enters a bound, its float32 add (2u) and float64 ties in ||y||^2 - q:
        # where a cell can be dropped the best amplitude exceeds eta, so costs
        # that tie differ in amplitude by under 10 T 2^-53 / eta < u.
        tu = 2 * schedule.num_probes * 2.0**-24  # below 0.22 by the grid memory rule
        self._eta = np.sqrt(2.0) * tu / (1.0 - tu) + 8 * 2.0**-24
        self._cell_reach = np.nextafter(np.float32(reach * (1.0 + 1e-9) + 2.0 * self._eta), np.float32(np.inf))
        # eta also decides a row with no search, from float32 amplitudes of
        # unit columns as the nodes': let its best node amplitude best exceed
        # every amplitude a_j of a set of columns by more than 3 eta.  Each
        # lies within eta of its exact value, so the exact amplitude A_b at
        # the best node b is above A_j + eta, and above 2 eta as a_j >= 0; the
        # exact costs ||y||^2 (1 - A^2) differ by ||y||^2 (A_b - A_j)(A_b +
        # A_j) > ||y||^2 eta^2, far above their float64 rounding (a few ulps
        # of ||y||^2): b's dense cost lies below every such column's, and the
        # dense argmin outside the set.
        # The largest ||y||^2 a frame may have: |z^H y|^2 <= ||z||^2 ||y||^2, so
        # twice the largest gain (at least 1) leaves every cost finite.
        self._max_energy = np.finfo(float).max / (2.0 * max(np.max(norms2), 1.0))
        # Slots: the grid padded to whole _CELL_COLUMNS-wide slots, slot k
        # holding columns k * _CELL_COLUMNS onwards; slot k belongs to cell k,
        # and any slot past the last cell to the last cell, which spans 17
        # columns when the grid is 16j + 1 wide.  Padding columns score like
        # zero-norm ones, as ||y||^2, after every real column of their row.
        slots = -(-g // _CELL_COLUMNS)
        pad = slots * _CELL_COLUMNS - g
        self._slot_norms2 = np.r_[np.where(norms2 > 0.0, norms2, 1.0), np.ones(pad)].reshape(slots, _CELL_COLUMNS)

    @property
    def step_deg(self) -> float:
        return float(self.angles_deg[1] - self.angles_deg[0])

    def _energy(self, ys):
        """Each frame's ||y||^2, under the frame rule of both scorers: before
        any arithmetic that could warn, a ValueError names the first frame
        whose energy is NaN, infinite or above ``_max_energy``."""
        with np.errstate(over="ignore"):
            total = np.sum(np.abs(ys) ** 2, axis=1)
        bad = np.flatnonzero(~(total <= self._max_energy))
        if len(bad):
            raise ValueError(f"frame {bad[0]} is not finite or too large: ||y||^2 = {total[bad[0]]!r}")
        return total

    def costs_batch(self, ys: np.ndarray) -> np.ndarray:
        """Cost matrix (batch x grid) for a batch of any size.  A one-row
        product takes BLAS's matrix-vector path and rounds differently, so a
        lone frame is scored as two identical rows, as in :meth:`_search`,
        and gets the bits of its row in any batch."""
        if len(ys) == 1:
            return self.costs_batch(ys[[0, 0]])[:1]
        g = len(self.angles_deg)
        total = self._energy(ys)
        costs = np.abs(ys @ self._responses_h)
        return _score(costs, self._slot_norms2.ravel()[:g], total)

    def _bounds(self, ys, total, prod, buf, unit):
        """Per-row float32 bounds on |zh^H y| / ||y|| over each cell's
        stretched columns, 2 eta included (rows x cells), and each row's best
        node amplitude.  Rows are scaled to unit norm, or to 0 when ``total``
        is 0 or subnormal, in the complex64 scratch ``unit``; their node
        products lie in the flat scratch ``prod``, the amplitudes in ``buf``,
        the bounds in ``prod`` over the spent products."""
        rows, m = len(ys), self._nodes_h.shape[1]
        scale = np.divide(1.0, np.sqrt(total), out=np.zeros(rows), where=total >= np.finfo(float).tiny)
        yh = np.multiply(ys, scale[:, None], out=unit[:rows], casting="same_kind")
        nodes = prod.view(np.complex64)[: rows * m].reshape(rows, m)
        amp = buf.view(np.float32)[: rows * m].reshape(rows, m)
        np.abs(np.matmul(yh, self._nodes_h, out=nodes), out=amp)
        bound = prod.view(np.float32)[: rows * (m - 1)].reshape(rows, m - 1)
        np.maximum(amp[:, :-1], amp[:, 1:], out=bound)
        bound += self._cell_reach
        return bound, np.max(amp, axis=1)

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
            costs = _score(costs.reshape(rows, -1), self._slot_norms2[kept_slots].ravel(), total)
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
            costs = _score(costs.view(np.float64).reshape(used, w), norms2, total[kept_rows])
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

    def _live(self, unit, best, near_h, prod, buf):
        """Which of the unit rows ``unit``, of best float32 node amplitude
        ``best``, have a float32 amplitude at some unit column of ``near_h``
        within 3 eta of ``best``: by eta's margin (see __init__) every other
        row's dense argmin lies outside those columns.  The products lie in
        the flat scratch ``prod`` and the amplitudes in ``buf``, as many rows
        at a time as they hold."""
        m = near_h.shape[1]
        limit = best.astype(float) - 3.0 * self._eta
        live = np.empty(len(unit), dtype=bool)
        rows = 2 * len(buf) // m
        for a in range(0, len(unit), rows):
            b = min(a + rows, len(unit))
            amp = buf.view(np.float32)[: (b - a) * m].reshape(b - a, m)
            np.abs(np.matmul(unit[a:b], near_h, out=prod.view(np.complex64)[: (b - a) * m].reshape(b - a, m)), out=amp)
            np.greater_equal(np.max(amp, axis=1), limit[a:b], out=live[a:b])
        return live

    def estimate(self, y: np.ndarray) -> AoaEstimate:
        """The :meth:`estimate_batch` angle of one frame, with the exact
        cost at that angle under the least-squares gain."""
        theta = float(self.estimate_batch(y[None, :])[0])
        z = self.schedule.beam_gains(theta) * self.symbols
        return AoaEstimate(theta, float(np.sum(np.abs(y - gain_hat(z, y) * z) ** 2)))

    def _block_shape(self, itemsize):
        """The kept entries a part scores at most and the rows of one block
        of frames of ``itemsize`` bytes an entry, as _BLOCK_BYTES divides the
        scratch; a block's node amplitudes, m float32 a row, fit the scratch
        of ``budget`` entries."""
        (t, m), (slots, w) = self._nodes_h.shape, self._slot_norms2.shape
        budget = max(2, (_BLOCK_BYTES - _BLOCK_BYTES // 16) // (32 * slots * w)) * slots * w
        block = min(_BLOCK_BYTES // 16 // (slots + itemsize * t), 2 * budget // m)
        return budget, max(2, block)

    @property
    def block_rows(self) -> int:
        """The rows of complex128 frames that :meth:`estimate_batch` bounds
        at once (526 at 0.05 deg): a batch of at most this many is one block."""
        return self._block_shape(np.dtype(complex).itemsize)[1]

    def estimate_batch(self, ys: np.ndarray, within=None) -> np.ndarray:
        """Refined angle estimates for a batch of observations: the grid
        argmin (lowest angle wins ties) plus one parabolic refinement.

        Returns only the angles; frames obey :meth:`_energy`'s rule, as in
        :meth:`costs_batch`.  Each row scores exactly only the cells its own
        bound keeps, or its block's union of them when that is barely more,
        with the bits of the dense costs there, so that its argmin and the
        argmin's neighbours are the dense ones.  Rows are bounded a block at
        a time, then scored in parts of whole rows whose kept cells fit.

        With a window ``within`` = (lo, hi) in degrees, the near columns are
        those within one grid step of it.  A row is NaN and is not searched
        when every near column's float32 amplitude falls below its best
        node's by more than 3 eta (see :meth:`_live`): its dense argmin lies
        outside the near columns and the refinement moves it by at most half
        a step, so its angle lies outside the window.  Every other row has
        the bits it has without a window.
        """
        n, (slots, w), cells = len(ys), self._slot_norms2.shape, len(self._cell_reach)
        total = self._energy(ys)
        if within is not None:
            # the near columns at unit norm; scratch for a block's rows that
            # are searched is made at the first block that skips others
            step = self.step_deg
            j0 = int(np.searchsorted(self.angles_deg, within[0] - step))
            j1 = int(np.searchsorted(self.angles_deg, within[1] + step, side="right"))
            if j0 >= j1:
                return np.full(n, np.nan)
            near_h = (self._responses_h[:, j0:j1] / np.sqrt(self._slot_norms2.ravel()[j0:j1])).astype(np.complex64)
            spare = None
        # Scratch for the products and costs of ``budget`` kept entries,
        # which first holds a block's bounds
        budget, block = self._block_shape(ys.itemsize)
        prod = np.empty(budget + 2 * slots * w, dtype=complex)
        buf = np.empty(budget + slots * w)
        keep = np.empty((min(n, block), slots), dtype=bool)
        picked = np.empty((max(2, len(keep)), ys.shape[1]), dtype=ys.dtype)
        unit = np.empty((len(keep), ys.shape[1]), dtype=np.complex64)
        out = np.empty(n)
        for lo in range(0, n, block):
            rows = min(n - lo, block)
            kept, part, part_total = keep[:rows], ys[lo : lo + rows], total[lo : lo + rows]
            bound, best = self._bounds(part, part_total, prod, buf, unit)
            np.greater_equal(bound, best[:, None], out=kept[:, :cells])
            # slots past the last cell follow it
            kept[:, cells:] = kept[:, cells - 1 : cells]
            at = np.arange(lo, lo + rows)
            if within is not None:
                live = self._live(unit[:rows], best, near_h, prod, buf)
                out[at[~live]] = np.nan
                if not live.all():
                    idx = np.flatnonzero(live)
                    if not len(idx):
                        continue
                    if spare is None:
                        spare = np.empty_like(keep), np.empty_like(picked[: len(keep)])
                    at, rows = at[idx], len(idx)
                    kept = np.take(kept, idx, axis=0, out=spare[0][:rows], mode="clip")
                    part = np.take(part, idx, axis=0, out=spare[1][:rows], mode="clip")
                    part_total = part_total[idx]
            union = np.any(kept, axis=0)
            if rows * np.count_nonzero(union) <= _UNION_SCORE * np.count_nonzero(kept):
                kept[:] = union
            # parts of whole rows: rows a to b - 1 keep ends[b] - ends[a] slots
            ends = np.r_[0, np.cumsum(np.count_nonzero(kept, axis=1))]
            a = 0
            while a < rows:
                b = max(a + 1, int(np.searchsorted(ends, ends[a] + budget // w, side="right")) - 1)
                out[at[a:b]] = self._search(part[a:b], kept[a:b], part_total[a:b], prod, buf, picked)
                a = b
        return out
