import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoa_auth import (
    ArrayConfig,
    AttackContext,
    CostCurve,
    NodeGeometry,
    PilotSequence,
    ProbeSchedule,
    ResponseGrid,
    channel_amplitude,
    code_based_attack,
    gain_hat,
    location_based_attack,
    noise_variance,
    received_signal,
    synthesize_observation,
)

from aoa_auth.estimator import _CELL_COLUMNS, MIN_GRID_STEP_DEG, check_grid_memory, check_grid_step
from oracles import deterministic_crb_deg, naive_cost


@pytest.fixture(scope="module")
def setup():
    sched = ProbeSchedule.uniform(17, 16)
    pilots = PilotSequence.constant(17)
    cfg = ArrayConfig()
    return sched, pilots, cfg


def alice_obs(setup, phase=0.0, rng=None, aoa=0.0, dist=10.0):
    # noiseless at channel phase ``phase``, or one noisy frame whose phase
    # and noise are drawn from ``rng``
    sched, pilots, cfg = setup
    signal = received_signal(sched, NodeGeometry(dist, aoa), pilots, cfg)
    if rng is None:
        return np.exp(1j * phase) * signal
    return synthesize_observation(signal, noise_variance(cfg), 1, rng)[0]


def cost_curve(setup, y, grid_step_deg=0.05):
    grid = ResponseGrid(*setup[:2], grid_step_deg)
    return CostCurve(grid.angles_deg, grid.costs_batch(y[None])[0])


def _responses(grid):
    # the grid's (grid x T) model responses, rows z(theta_j), with the bits
    # and layout they were built with
    return grid._responses_h.conj().T


def _norms2(grid):
    return np.sum(np.abs(_responses(grid)) ** 2, axis=1)


def grid_row(grid, theta_deg):
    return _responses(grid)[int(np.argmin(np.abs(grid.angles_deg - theta_deg)))]


class TestModelResponse:
    # the rows of the grid's responses are the unit-gain model responses
    # z_t(theta) = (w_t^H a(theta)) s_t
    def test_probe_aligned_entry_magnitude(self, setup):
        sched, pilots, _ = setup
        z = grid_row(ResponseGrid(sched, pilots), 45.0)
        t45 = list(sched.probe_angles_deg).index(45.0)
        assert abs(z[t45]) == pytest.approx(16.0 / np.sqrt(17.0))

    def test_null_entry(self, setup):
        sched, pilots, _ = setup
        z = grid_row(ResponseGrid(sched, pilots), 30.0)
        t0 = list(sched.probe_angles_deg).index(0.0)
        assert abs(z[t0]) < 1e-12

    def test_zero_pilots_give_zero_response(self, setup):
        sched, _, _ = setup
        symbols = np.zeros(17, dtype=complex)
        symbols[3] = 1.0
        grid = ResponseGrid(sched, PilotSequence(symbols))
        # at every grid angle, 17 deg included
        assert np.all(np.delete(_responses(grid), 3, axis=1) == 0)

    def test_rejects_pilots_of_wrong_length(self, setup):
        with pytest.raises(ValueError, match="pilot length"):
            ResponseGrid(setup[0], PilotSequence.constant(16))


class TestGainHat:
    def test_exact_fit(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert gain_hat(z, 3.0 * z) == pytest.approx(3.0 + 0.0j)

    def test_orthogonal_gives_zero(self):
        z = np.array([1.0 + 0j, 0.0])
        y = np.array([0.0, 2.0 + 0j])
        assert gain_hat(z, y) == 0.0
        # cost at the orthogonal point is the full energy
        assert naive_cost(list(y), list(z)) == pytest.approx(np.sum(np.abs(y) ** 2))

    def test_residual_orthogonal_to_model(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            h = gain_hat(z, y)
            assert abs(np.vdot(z, y - h * z)) < 1e-10

    def test_cost_identity(self):
        # ||y - h z||^2 == ||y||^2 - |z^H y|^2 / ||z||^2
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            closed = np.sum(np.abs(y) ** 2) - abs(np.vdot(z, y)) ** 2 / np.sum(np.abs(z) ** 2)
            assert naive_cost(list(y), list(z)) == pytest.approx(closed)

    def test_all_zero_model(self):
        assert gain_hat(np.zeros(3, dtype=complex), np.ones(3, dtype=complex)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gain_hat(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


class TestCostCurve:
    def test_noiseless_victim_minimum_is_zero_at_truth(self, setup):
        y = alice_obs(setup, phase=0.9)
        curve = cost_curve(setup, y)
        i = int(np.argmin(curve.costs))
        assert curve.angles_deg[i] == pytest.approx(0.0, abs=0.05)
        energy = np.sum(np.abs(y) ** 2)
        assert abs(curve.costs[i]) <= 1e-12 * energy

    def test_location_attack_moves_minimum_to_target(self, setup):
        sched, pilots, cfg = setup
        ctx = AttackContext(sched, pilots, 0.0, 45.0)
        p, _ = location_based_attack(ctx)
        y = np.exp(0.2j) * received_signal(sched, NodeGeometry(10.0, 45.0), p, cfg)
        curve = cost_curve(setup, y)
        i = int(np.argmin(curve.costs))
        assert abs(curve.angles_deg[i]) <= 0.05
        # the true angle leaves no deep minimum behind
        near_45 = np.abs(curve.angles_deg - 45.0) <= 5.0
        energy = np.sum(np.abs(y) ** 2)
        assert np.min(curve.costs[near_45]) > 0.5 * energy

    def test_code_attack_creates_minima_at_both_angles(self, setup):
        sched, pilots, cfg = setup
        ctx = AttackContext(sched, pilots, 0.0, 45.0)
        p, _ = code_based_attack(ctx)
        y = received_signal(sched, NodeGeometry(10.0, 45.0), p, cfg)
        curve = cost_curve(setup, y)
        c = curve.costs
        local = np.flatnonzero((c[1:-1] < c[:-2]) & (c[1:-1] < c[2:])) + 1
        order = local[np.argsort(c[local])]
        # deepest well-separated pair of local minima
        first = order[0]
        second = next(
            i for i in order[1:]
            if abs(curve.angles_deg[i] - curve.angles_deg[first]) > 11.25
        )
        found = sorted([curve.angles_deg[first], curve.angles_deg[second]])
        assert abs(found[0] - 0.0) <= 11.25
        assert abs(found[1] - 45.0) <= 11.25

    def test_csv_round_trip(self, setup, tmp_path):
        curve = cost_curve(setup, alice_obs(setup), grid_step_deg=1.0)
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 0], curve.angles_deg)
        assert np.array_equal(data[:, 1], curve.costs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CostCurve(np.zeros(3), np.zeros(4))

    def test_rejects_bad_grid_step(self, setup):
        # True would pass as the number 1 and build a 1 deg grid
        for step in (0.0, -1.0, 1e-6, 0.000999, 10.5, np.nan, True):
            with pytest.raises(ValueError, match="grid_step_deg"):
                cost_curve(setup, alice_obs(setup), grid_step_deg=step)

    @pytest.mark.parametrize("step", [MIN_GRID_STEP_DEG, 0.005, 10.0])
    def test_accepts_grid_step_bounds(self, step):
        # the rules alone: a 0.001 deg grid would hold 180,001 responses
        check_grid_step(step)
        check_grid_memory(16, 17, step)
        check_grid_memory(64, 64, step)

    def test_rejects_grids_too_large_to_build(self, setup):
        # 180,001 x (5,000 + 17) entries would take 14 GB; the grid refuses
        # them before it allocates
        sched = ProbeSchedule.uniform(17, 5000)
        with pytest.raises(ValueError, match=r"num_antennas 5000 and num_probes 17 at grid_step_deg 0.001"):
            ResponseGrid(sched, setup[1], MIN_GRID_STEP_DEG)
        with pytest.raises(ValueError, match="num_probes"):
            check_grid_memory(16, 10**9, 10.0)
        # the 19-angle grid itself would take 464 MiB, its combiners 9.3 TiB
        with pytest.raises(ValueError, match="combiners"):
            check_grid_memory(800_000, 800_000, 10.0)


class TestEstimateAoa:
    def test_noiseless_exact(self, setup):
        y = alice_obs(setup, phase=1.1)
        est = ResponseGrid(*setup[:2]).estimate(y)
        assert est.theta_hat_deg == pytest.approx(0.0, abs=1e-6)
        assert abs(est.cost_at_min) <= 1e-12 * np.sum(np.abs(y) ** 2)

    def test_unattacked_eavesdropper_estimates_own_angle(self, setup):
        rng = np.random.default_rng(7)
        y = alice_obs(setup, rng=rng, aoa=45.0)
        est = ResponseGrid(*setup[:2]).estimate(y)
        assert est.theta_hat_deg == pytest.approx(45.0, abs=0.1)

    def test_noisy_rmse_below_half_degree(self, setup):
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots)
        rng = np.random.default_rng(8)
        n = 1000
        amp = np.sqrt(cfg.tx_power_watts) * 9.5427e-4
        base = amp * sched.beam_gains(0.0) * pilots.symbols
        sigma2 = noise_variance(cfg)
        ys = np.exp(1j * rng.uniform(0, 2 * np.pi, n))[:, None] * base + np.sqrt(
            sigma2 / 2
        ) * (rng.standard_normal((n, 17)) + 1j * rng.standard_normal((n, 17)))
        thetas = grid.estimate_batch(ys)
        assert np.sqrt(np.mean(thetas**2)) < 0.5

    def test_phase_rotation_invariance(self, setup):
        rng = np.random.default_rng(9)
        y = alice_obs(setup, rng=rng)
        grid = ResponseGrid(*setup[:2])
        c1 = grid.costs_batch(y[None])[0]
        c2 = grid.costs_batch(y[None] * np.exp(1j * 1.234))[0]
        np.testing.assert_allclose(c1, c2, rtol=1e-10)

    def test_positive_scaling_invariance(self, setup):
        rng = np.random.default_rng(10)
        y = alice_obs(setup, rng=rng)
        grid = ResponseGrid(*setup[:2])
        c1 = grid.costs_batch(y[None])[0]
        c2 = grid.costs_batch(3.0 * y[None])[0]
        np.testing.assert_allclose(c2, 9.0 * c1, rtol=1e-10)
        # refinement is scale-invariant up to floating rounding in the
        # parabola coefficients
        assert grid.estimate(y).theta_hat_deg == pytest.approx(
            grid.estimate(3.0 * y).theta_hat_deg, abs=1e-9
        )

    def test_batch_matches_single(self, setup):
        sched, pilots, _ = setup
        grid = ResponseGrid(sched, pilots)
        rng = np.random.default_rng(11)
        ys = rng.standard_normal((20, 17)) + 1j * rng.standard_normal((20, 17))
        batch = grid.estimate_batch(ys)
        singles = [grid.estimate(y).theta_hat_deg for y in ys]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-9)

    def test_matches_finer_bruteforce(self, setup):
        # coarse grid + parabolic refinement against a 10x finer exhaustive
        # search, small sample here (the full check runs in acceptance)
        sched, pilots, cfg = setup
        coarse = ResponseGrid(sched, pilots, 0.05)
        fine = ResponseGrid(sched, pilots, 0.005)
        rng = np.random.default_rng(12)
        for _ in range(10):
            y = alice_obs(setup, rng=rng)
            t_hat = coarse.estimate(y).theta_hat_deg
            brute = fine.angles_deg[int(np.argmin(fine.costs_batch(y[None])[0]))]
            assert abs(t_hat - brute) <= 0.05


def _dense_costs(grid, ys):
    # the cost expression as one dense pass over the whole batch
    norms2 = _norms2(grid)
    safe = np.where(norms2 > 0.0, norms2, 1.0)
    proj = np.abs(ys @ _responses(grid).conj().T) ** 2 / safe[None, :]
    proj[:, norms2 == 0.0] = 0.0
    total = np.sum(np.abs(ys) ** 2, axis=1)
    return total[:, None] - proj


def _dense_estimates(grid, ys):
    # argmin plus parabolic refinement over costs_batch of the whole batch
    costs = grid.costs_batch(ys)
    idx = np.argmin(costs, axis=1)
    theta = grid.angles_deg[idx]
    rows = np.nonzero((idx > 0) & (idx < costs.shape[1] - 1))[0]
    ii = idx[rows]
    cm, c0, cp = costs[rows, ii - 1], costs[rows, ii], costs[rows, ii + 1]
    denom = cm - 2.0 * c0 + cp
    ok = denom > 0.0
    offset = np.zeros(len(rows))
    offset[ok] = np.clip(0.5 * (cm[ok] - cp[ok]) / denom[ok], -0.5, 0.5)
    theta[rows] = theta[rows] + offset * grid.step_deg
    return theta


def _frames(grid, n, seed):
    # a mix of pure-noise frames and noisy model responses at random grid
    # angles, the grid edges included
    rng = np.random.default_rng(seed)
    responses = _responses(grid)
    t = responses.shape[1]
    ys = 0.1 * (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t)))
    signal = rng.random(n) < 0.7
    cols = rng.integers(0, len(grid.angles_deg), n)
    cols[: min(n, 4)] = [0, len(grid.angles_deg) - 1, 0, 1][: min(n, 4)]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ys[signal] += phases[signal, None] * responses[cols[signal]]
    return ys


class TestEstimateBatchBlocking:
    @pytest.fixture(scope="class")
    def grid(self, setup):
        return ResponseGrid(*setup[:2])

    @pytest.fixture(scope="class")
    def block(self, grid):
        # the rows estimate_batch bounds and scores as one block
        block = grid.block_rows
        assert block > 2
        return block

    def test_matches_dense_reference(self, grid, block):
        for n in [1, 2, 47, 48, 49, 97, 150, 512, 1000]:
            ys = _frames(grid, n, seed=n)
            assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys)), n
        for n in [block - 1, block, block + 1, 2 * block + 1]:
            ys = _frames(grid, n, seed=n)
            assert np.array_equal(grid.estimate_batch(ys), _chunked_dense_estimates(grid, ys)), n

    def test_parts_of_rows_keeping_every_cell(self, grid):
        # all-zero rows keep every cell, so a block is scored in parts of the
        # rows whose whole grid fits the scratch (33 at 0.05 deg); k parts
        # and one such row leave a one-row part, scored as two identical rows
        budget = grid._block_shape(np.dtype(complex).itemsize)[0]
        part = budget // grid._slot_norms2.size
        assert part > 2
        for n in (part + 1, 2 * part + 1):
            ys = np.zeros((n, 17), dtype=complex)
            assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys)), n
            ys = np.concatenate([ys, _frames(grid, 2 * part, seed=n)])
            assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys)), n

    def test_sub_batches_join_to_whole(self, grid, block):
        ys = _frames(grid, 3 * block + 7, seed=21)
        whole = grid.estimate_batch(ys)
        for cuts in ([2], [block - 1, block + 2], [3, block + 1, 2 * block + 1]):
            parts = np.split(ys, cuts)
            assert all(len(part) >= 2 for part in parts)
            joined = np.concatenate([grid.estimate_batch(part) for part in parts])
            assert np.array_equal(joined, whole), cuts

    def test_single_frame_takes_the_batch_angle(self, grid, setup):
        sched, pilots, cfg = setup
        rng = np.random.default_rng(41)
        frames = [_frames(grid, 1000, seed=42)]
        for dist in (10.0, 300.0):
            for theta in rng.uniform(-89.0, 89.0, 250):
                signal = received_signal(sched, NodeGeometry(dist, theta), pilots, cfg)
                frames.append(synthesize_observation(signal, noise_variance(cfg), 2, rng))
        ys = np.concatenate(frames)
        assert len(ys) == 2000
        batch = grid.estimate_batch(ys)
        for y, theta in zip(ys, batch):
            est = grid.estimate(y)
            assert est.theta_hat_deg == theta
            z = sched.beam_gains(est.theta_hat_deg) * pilots.symbols
            cost = naive_cost(list(y), list(z))
            assert est.cost_at_min == pytest.approx(cost, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), 1e200])
    def test_rejects_non_finite_frames(self, grid, block, bad):
        # a NaN, an infinity or an entry whose square overflows makes the
        # frame's energy non-finite; both scorers name the first such frame,
        # before any arithmetic that would warn.  Row 530 lies in the
        # second block.
        assert block < 530
        y = _frames(grid, 1, seed=51)[0]
        y[7] = bad
        for call in (grid.estimate, lambda y: grid.estimate_batch(y[None, :]), lambda y: grid.costs_batch(y[None, :])):
            with pytest.raises(ValueError, match=r"frame 0 is not finite"):
                call(y)
        for row in (0, 3, 530, 599):
            ys = _frames(grid, 600, seed=52)
            ys[row, 7] = ys[599, 2] = bad
            for score in (grid.estimate_batch, grid.costs_batch):
                with pytest.raises(ValueError, match=rf"frame {row} is not finite"):
                    score(ys)

    def test_rejects_frames_whose_products_overflow(self, grid):
        # energy 1.69e308 along the 0 deg column is finite, but |z^H y|^2
        # there is ||z||^2 = 67.5 times that; both scorers refuse the frame,
        # alone or as row 4 of a batch
        y = _responses(grid)[1800]
        y = y * (np.sqrt(1.69e308) / np.linalg.norm(y))
        assert np.isfinite(np.sum(np.abs(y) ** 2))
        ys = _frames(grid, 6, seed=53)
        ys[4] = y
        for score in (grid.costs_batch, grid.estimate_batch):
            with pytest.raises(ValueError, match=r"frame 0 is not finite or too large"):
                score(y[None])
            with pytest.raises(ValueError, match=r"frame 4 is not finite or too large"):
                score(ys)

    @pytest.mark.parametrize("dip", [False, True])
    def test_frames_within_the_energy_limit_score_without_warnings(self, setup, dip):
        # the default grid, or the norm-dip grid of
        # test_matches_dense_search_beside_a_norm_dip, whose cells reach
        # further.  Frames along every 7th column's response (|z^H y|^2 at
        # its largest) and along each cell's worst residual (its bound at
        # its largest), at half the largest energy a frame may have, score
        # with no overflow; at twice it, frame 5 is refused.
        if dip:
            sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
            grid = ResponseGrid(sched, PilotSequence([1e-3, np.sqrt(1.0 - 1e-6)]), 90.0 / 1792)
        else:
            grid = ResponseGrid(*setup[:2])
        ys = np.concatenate([_responses(grid)[::7], _worst_residual_frames(grid)])
        ys *= np.sqrt(0.5 * grid._max_energy) / np.linalg.norm(ys, axis=1)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(grid.costs_batch(ys)))
            assert np.all(np.isfinite(grid.estimate_batch(ys)))
        ys[5] *= 2.0
        for score in (grid.costs_batch, grid.estimate_batch):
            with pytest.raises(ValueError, match=r"frame 5 is not finite or too large"):
                score(ys)

    def test_empty_batch(self, grid):
        assert grid.estimate_batch(np.empty((0, 17), dtype=complex)).shape == (0,)


class TestCostsMatchDenseExpression:
    def test_default_grid(self, setup):
        grid = ResponseGrid(*setup[:2])
        ys = _frames(grid, 37, seed=31)
        assert np.array_equal(grid.costs_batch(ys), _dense_costs(grid, ys))
        assert np.array_equal(grid.costs_batch(ys[5:6])[0], _dense_costs(grid, ys)[5])

    def test_zero_norm_columns(self):
        # the second beam w = [1, -1] is null at broadside, and the zero
        # first pilot symbol leaves only that beam, so the 0 deg column of
        # the grid has zero norm and costs ||y||^2
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        grid = ResponseGrid(sched, PilotSequence([0.0, 1.0]))
        assert np.array_equal(np.flatnonzero(_norms2(grid) == 0.0), [1800])
        rng = np.random.default_rng(32)
        ys = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        costs = grid.costs_batch(ys)
        assert np.array_equal(costs, _dense_costs(grid, ys))
        assert np.array_equal(costs[:, 1800], np.sum(np.abs(ys) ** 2, axis=1))
        assert np.array_equal(grid.costs_batch(ys[:1])[0], costs[0])

    def test_underflowed_zero_norm_column(self):
        # with first pilot symbol 1e-170 the 0 deg response is [2e-170, 0],
        # nonzero, but its ||z||^2 underflows to 0: its cost is still exactly
        # ||y||^2, unmasked, and the search takes the dense angles, for
        # frames of any scale
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        grid = ResponseGrid(sched, PilotSequence([1e-170, 1.0]))
        assert np.array_equal(np.flatnonzero(_norms2(grid) == 0.0), [1800])
        assert _responses(grid)[1800, 0] != 0.0
        rng = np.random.default_rng(34)
        ys = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
        ys[:100] = 0.01 * ys[:100] + _responses(grid)[1800]
        ys /= np.linalg.norm(ys, axis=1)[:, None]
        for scale in (1e-150, 1.0, 1e150):
            costs = grid.costs_batch(scale * ys)
            assert np.array_equal(costs[:, 1800], np.sum(np.abs(scale * ys) ** 2, axis=1))
            assert np.array_equal(costs, _dense_costs(grid, scale * ys))
            assert np.array_equal(grid.estimate_batch(scale * ys), _dense_estimates(grid, scale * ys))

    def test_single_frame_is_its_batch_row(self, setup):
        # a one-row product takes BLAS's matrix-vector path, which moves
        # the costs of all 50 of these frames, by up to 1.7e-13 relative
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots)
        rng = np.random.default_rng(33)
        ys = np.stack([alice_obs(setup, rng=rng, dist=300.0) for _ in range(50)])
        costs = grid.costs_batch(ys)
        for k, y in enumerate(ys):
            assert np.array_equal(grid.costs_batch(y[None])[0], costs[k]), k


def _chunked_dense_estimates(grid, ys, chunk=512):
    # the dense reference in chunks of at most 512 rows (one dense pass over
    # 20k frames at 0.05 deg holds 1.7 GB); no chunk has one row
    assert len(ys) % chunk != 1
    return np.concatenate([_dense_estimates(grid, ys[lo : lo + chunk]) for lo in range(0, len(ys), chunk)])


def _mixed_frames(setup, seed):
    # sweep-like groups of frames that share a source, so that many blocks
    # prune: noise only, Alice-like signals at random angles and within 5 deg
    # of +-90 deg at 10 m, 300 m and 3 km, code-based attack frames with two
    # cost minima, and all-zero frames
    sched, pilots, cfg = setup
    rng = np.random.default_rng(seed)
    sigma2 = noise_variance(cfg)
    groups = []

    def add(signal, count):
        groups.append(synthesize_observation(signal, sigma2, count, rng))

    for _ in range(12):
        add(np.zeros(17, dtype=complex), int(rng.integers(2, 400)))
    for dist in (10.0, 300.0, 3000.0):
        for theta in np.r_[
            rng.uniform(-89.99, 89.99, 60), rng.uniform(-89.99, -85.0, 10), rng.uniform(85.0, 89.99, 10)
        ]:
            add(received_signal(sched, NodeGeometry(dist, theta), pilots, cfg), int(rng.integers(2, 150)))
    for theta in rng.uniform(-80.0, 80.0, 12):
        attack, _ = code_based_attack(AttackContext(sched, pilots, 0.0, theta))
        add(received_signal(sched, NodeGeometry(10.0, theta), attack, cfg), int(rng.integers(2, 200)))
    zeros = np.zeros((96, 17), dtype=complex)
    ys = np.concatenate(groups + [zeros[:48]])
    ys = np.concatenate([ys[:5000], zeros[48:], ys[5000:]])
    # a mixed tail: single frames from every group in random order
    return np.concatenate([ys, rng.permutation(ys)[:1500]])


class TestPrunedSearchExact:
    # estimate_batch scores only the cells its bound keeps; these check that
    # it still returns the dense search's angles bit for bit

    @pytest.fixture(scope="class")
    def grid(self, setup):
        return ResponseGrid(*setup[:2])

    @pytest.fixture(scope="class")
    def frames(self, setup):
        ys = _mixed_frames(setup, seed=91)
        assert len(ys) >= 20_000
        return ys

    @pytest.mark.parametrize("step", [0.05, 0.1, 1.0])
    def test_blas_windows_match_full_product(self, setup, step):
        # the invariant the pruned search rests on: a window of columns
        # starting on a 16-column boundary, 16k wide or ending at the last
        # column, gets the bits of the full product, for a slice of the
        # batch's rows and for any two or more rows gathered from it (one
        # row repeated to make two), also written into a wider output row
        grid = ResponseGrid(*setup[:2], step)
        rh = grid._responses_h
        g = rh.shape[1]
        rng = np.random.default_rng(93)
        windows = [(lo, g) for lo in range(0, g - 1, 16)]
        for _ in range(60):
            width = 16 * int(rng.integers(1, min(25, g // 16) + 1))
            lo = 16 * int(rng.integers(0, (g - width) // 16 + 1))
            windows.append((lo, lo + width))

        def check(ys, full, rows, windows):
            for lo, hi in windows:
                out = np.empty((len(rows), -(-(hi - lo) // 16) * 16), dtype=complex)
                np.matmul(ys[rows], rh[:, lo:hi], out=out[:, : hi - lo])
                assert np.array_equal(out[:, : hi - lo], full[rows][:, lo:hi]), (len(rows), lo, hi)

        for rows in (1, 2, 3, 48, 150):
            ys = rng.standard_normal((rows, 17)) + 1j * rng.standard_normal((rows, 17))
            check(ys, ys @ rh, np.arange(rows), windows)
        ys = rng.standard_normal((512, 17)) + 1j * rng.standard_normal((512, 17))
        full = ys @ rh
        for size in [*range(2, 70), 100, 255, 256, 257, 511]:
            rows = np.sort(rng.choice(512, size, replace=False))
            picks = rng.choice(len(windows), 6, replace=False)
            check(ys, full, rows, [windows[0], windows[-1]] + [windows[i] for i in picks])
        for row in rng.choice(512, 4, replace=False):
            check(ys, full, np.array([row, row]), windows)

    @pytest.mark.parametrize("step", [0.05, 0.1, 1.0])
    def test_matches_dense_search(self, setup, frames, step):
        grid = ResponseGrid(*setup[:2], step)
        assert np.array_equal(grid.estimate_batch(frames), _chunked_dense_estimates(grid, frames))

    @pytest.mark.parametrize("step", [0.05, 0.1, 1.0])
    def test_matches_dense_search_with_zero_norm_column(self, step):
        # the grid of TestCostsMatchDenseExpression.test_zero_norm_columns:
        # the 0 deg column has zero norm and the norms vary 0 to 2 nearby
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        grid = ResponseGrid(sched, PilotSequence([0.0, 1.0]), step)
        assert np.count_nonzero(_norms2(grid) == 0.0) == 1
        rng = np.random.default_rng(94)
        n = 20_000
        ys = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        # frames along model responses, grouped, plus all-zero frames
        cols = np.repeat(rng.integers(0, len(grid.angles_deg), n // 100), 100)
        ys[: n // 2] = 0.01 * ys[: n // 2] + _responses(grid)[cols[: n // 2]]
        ys[n // 2 : n // 2 + 100] = 0.0
        assert np.array_equal(grid.estimate_batch(ys), _chunked_dense_estimates(grid, ys))

    def test_signal_blocks_are_pruned(self, setup):
        # not vacuous: each row of 48 signal frames and of 48 noise-only
        # frames keeps under 4% of the grid on average, and a row with
        # nothing to go on keeps every cell
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots)
        rng = np.random.default_rng(95)
        signal = received_signal(sched, NodeGeometry(10.0, 20.0), pilots, cfg)
        g = len(grid.angles_deg)
        widths = np.diff(np.r_[_nodes(g)[:-1], g])

        def kept(frames):
            bound, best = _bounds(grid, frames)
            return ~(bound < best[:, None]) @ widths / g

        assert kept(synthesize_observation(signal, noise_variance(cfg), 48, rng)).mean() < 0.04
        assert kept(synthesize_observation(0.0 * signal, noise_variance(cfg), 48, rng)).mean() < 0.04
        assert np.all(kept(np.zeros((48, 17), dtype=complex)) == 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.lists(st.integers(-170, 153), min_size=1, max_size=4),
    )
    def test_matches_dense_search_at_any_scale(self, grid, n, seed, exponents):
        # _frames' noisy signal and noise-only frames, two-tone and all-zero
        # frames, of norm at most 1, each scaled by one of a few powers of
        # ten, so that blocks share scales and prune; below about 1e-154 a
        # frame's ||y||^2 is subnormal or 0 and it keeps every cell, near
        # 1e153 it nears the energy limit
        rng = np.random.default_rng(seed)
        kinds = rng.integers(0, 4, n)
        ys = _frames(grid, n, seed)
        ys[kinds == 2] = _two_tone_frames(grid, rng.uniform(-1.0, 1.0, np.sum(kinds == 2)))
        ys[kinds == 3] = 0.0
        norms = np.linalg.norm(ys, axis=1)
        ys /= np.where(norms > 0.0, norms / rng.uniform(0.5, 1.0, n), 1.0)[:, None]
        ys *= 10.0 ** rng.choice(exponents, n)[:, None]
        assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys))

    def test_frames_of_subnormal_energy_keep_every_cell(self, grid):
        # a signal frame at 1e-158 has ||y||^2 about 7e-315, subnormal: its
        # float64 costs cannot resolve its maximum, so it keeps every cell,
        # as an all-zero frame does; at 1e-150 the same frame prunes
        ys = np.array([_responses(grid)[2100], np.zeros(17)])
        for scale, pruned in ((1e-158, False), (1e-150, True)):
            total = np.sum(np.abs(scale * ys) ** 2, axis=1)
            assert (0.0 < total[0] < np.finfo(float).tiny) != pruned
            bound, best = _bounds(grid, scale * ys)
            assert np.all(bound >= best[:, None], axis=1).tolist() == [not pruned, True]
            assert np.array_equal(grid.estimate_batch(scale * ys), _dense_estimates(grid, scale * ys))

    @pytest.mark.parametrize("center", [1791, 1792, 1793])
    def test_matches_dense_search_beside_a_norm_dip(self, center):
        # A 2-antenna grid whose ||z||^2 dips to 4e-6 at 0 deg, the grid
        # column ``center``, one column before, on or after a 16-column cell
        # edge.  Frames along the first beam peak there, one column wide, so
        # the neighbouring cell is kept only because its bound counts the
        # dip column's norm.
        eps = 1e-3
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        grid = ResponseGrid(sched, PilotSequence([eps, np.sqrt(1.0 - eps**2)]), 90.0 / center)
        assert len(grid.angles_deg) == 2 * center + 1
        rng = np.random.default_rng(center)
        ys = 1e-4 * (rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2)))
        ys[:1500, 0] += np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1500))
        assert np.array_equal(grid.estimate_batch(ys), _chunked_dense_estimates(grid, ys))


def _within_frames(setup, grid, seed):
    # noise only, Alice-like signals at 10 m and 300 m (near 0, 30 and
    # +-90 deg among them), code-based attack frames with two cost minima,
    # all-zero frames (they keep every cell) and the mix of _frames
    sched, pilots, cfg = setup
    rng = np.random.default_rng(seed)
    sigma2 = noise_variance(cfg)
    groups = [synthesize_observation(np.zeros(17, dtype=complex), sigma2, 300, rng), np.zeros((20, 17), dtype=complex)]
    for theta in np.r_[0.0, 0.02, 30.0, 89.5, -89.5, -89.98, 89.98, rng.uniform(-89.0, 89.0, 8)]:
        for dist in (10.0, 300.0):
            groups.append(synthesize_observation(received_signal(sched, NodeGeometry(dist, theta), pilots, cfg), sigma2, 20, rng))
    for theta in (-60.0, 30.0, 45.0):
        attack, _ = code_based_attack(AttackContext(sched, pilots, 0.0, theta))
        groups.append(synthesize_observation(received_signal(sched, NodeGeometry(10.0, theta), attack, cfg), sigma2, 40, rng))
    groups.append(_frames(grid, 200, seed))
    return rng.permutation(np.concatenate(groups))


def _bound_decided(grid, ys, within):
    # the rows whose own kept cells hold no column within one grid step of
    # the window, which the bound alone decides
    bound, best = _bounds(grid, ys)
    kept = bound >= best[:, None]
    step, angles = grid.step_deg, grid.angles_deg
    cols = np.flatnonzero((angles >= within[0] - step) & (angles <= within[1] + step))
    return ~np.any(kept[:, np.minimum(cols // _CELL_COLUMNS, kept.shape[1] - 1)], axis=1)


def _near_tie_frames(grid, count, seed):
    # frames zh_a + c e^{i phi} zh_b whose two lobes peak, in exact amplitude
    # |zh^H y| / ||y||, at a column p about a and at a node q about b, q's
    # peak above p's by a margin from -3 eta to 3 eta (two in three below 0,
    # most within eta / 10 of 0): b moves until q is a node, and Newton
    # steps set c.  Each frame comes with a window about p's angle, whose
    # near slots hold p and lie far from q.
    rng = np.random.default_rng(seed)
    zh = _responses(grid) / np.sqrt(_norms2(grid))[:, None]
    g, lobe, w = len(grid.angles_deg), 100, _CELL_COLUMNS
    tu = 2 * grid.schedule.num_probes * 2.0**-24
    eta = np.sqrt(2.0) * tu / (1.0 - tu) + 8 * 2.0**-24
    frames, windows = [], []
    while len(frames) < count:
        a, b = rng.integers(lobe, g - lobe, 2)
        margin = eta * rng.choice([-1.0, -1.0, 1.0]) * 10 ** rng.uniform(-3.0, 0.5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

        def peaks(c):
            y = zh[a] + c * phase * zh[b]
            amp = np.abs(zh.conj() @ y) / np.linalg.norm(y)
            p, q = (k - lobe + np.argmax(amp[k - lobe : k + lobe]) for k in (a, b))
            return amp[q] - amp[p], y, p, q

        c = 1.0
        for _ in range(20):
            if not (lobe <= b < g - lobe and abs(a - b) > 6 * lobe):
                break
            gap, y, p, q = peaks(c)
            if q % w:
                b += w * round(q / w) - q
            elif abs(gap - margin) > 1e-3 * eta:
                c -= (gap - margin) * 1e-4 / (peaks(c + 1e-4)[0] - gap)
            else:
                if p % w:
                    frames.append(y)
                    windows.append((grid.angles_deg[p] - 0.01, grid.angles_deg[p] + 0.01))
                break
    return np.array(frames), windows


class TestEstimateWithinWindow:
    # with a window, a row is NaN only where the plain search's angle cannot
    # lie in it; every other row keeps its plain bits

    @staticmethod
    def check(grid, ys, within):
        plain = grid.estimate_batch(ys)
        got = grid.estimate_batch(ys, within)
        dead = np.isnan(got)
        assert np.array_equal(got[~dead], plain[~dead])
        # a NaN row's dense argmin lies more than one step outside the
        # window, so its refined angle more than half a step
        step, lo, hi = grid.step_deg, *within
        gone = ys[dead]
        cols = [np.argmin(grid.costs_batch(gone[k : k + 256]), axis=1) for k in range(0, len(gone), 256)]
        argmin = grid.angles_deg[np.concatenate([np.zeros(0, dtype=int), *cols])]
        assert np.all((argmin < lo - step) | (argmin > hi + step))
        assert np.all((plain[dead] < lo - step / 2) | (plain[dead] > hi + step / 2))
        # all-zero rows keep every cell
        assert not np.any(dead & np.all(ys == 0.0, axis=1))
        return np.count_nonzero(dead)

    # the auth-lba verifier's window, one about a signal angle, windows
    # touching +-90 deg, one past the grid's end, and one over a third of the
    # grid, whose near columns the float64 check scores a few rows at a time
    WINDOWS = [(-0.078, 0.078), (29.5, 30.5), (85.0, 90.0), (-90.0, -87.0), (89.99, 95.0), (-95.0, -89.97), (-60.0, 0.0)]

    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_rows_are_plain_or_outside_the_window(self, setup, step):
        grid = ResponseGrid(*setup[:2], step)
        ys = _within_frames(setup, grid, 40)
        assert len(ys) > grid.block_rows
        dead = []
        for within in self.WINDOWS:
            dead.append(self.check(grid, ys, within))
            # a lone frame of every kind (a block's first row) and a small batch
            for k in range(0, 40):
                self.check(grid, ys[k : k + 1], within)
            self.check(grid, ys[:47], within)
        # every window decides some frames at 0.05 deg; at 1 deg a cell
        # spans 16 deg, so a narrow window may leave every frame searched
        assert max(dead) < len(ys) and (min(dead) if step == 0.05 else max(dead)) > 0, dead

    def test_near_cells_that_lose_to_a_far_best_node(self, setup):
        # noise-only frames and signals at 300 m whose bounds keep cells near
        # the window but whose best node lies far from it: the float64
        # amplitudes of the near columns decide some rows that the bound
        # alone leaves to the search, and every row the bound decides stays NaN
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots)
        rng = np.random.default_rng(43)
        sigma2 = noise_variance(cfg)
        groups = [synthesize_observation(np.zeros(17, dtype=complex), sigma2, 300, rng)]
        for theta in rng.uniform(-60.0, 60.0, 20):
            signal = received_signal(sched, NodeGeometry(300.0, theta), pilots, cfg)
            groups.append(synthesize_observation(signal, sigma2, 20, rng))
        ys = rng.permutation(np.concatenate(groups))
        assert len(ys) > grid.block_rows
        for within in self.WINDOWS[:2]:
            self.check(grid, ys, within)
            dead, early = np.isnan(grid.estimate_batch(ys, within)), _bound_decided(grid, ys, within)
            assert np.all(dead[early]) and np.count_nonzero(dead & ~early) > 0, within

    def test_near_ties_between_a_near_column_and_a_far_node(self, setup):
        # frames whose near lobe and far best node peak within 3 eta of each
        # other: the float32 best node may overstate its exact amplitude by
        # up to eta, so without the 2 eta margin the check would decide rows
        # whose argmin lies in the window.  Ties fall both ways: some rows
        # are decided, and some have their angle in the window.
        grid = ResponseGrid(*setup[:2])
        ys, windows = _near_tie_frames(grid, 90, 3)
        plain = grid.estimate_batch(ys)
        dead = inside = 0
        for y, theta, (lo, hi) in zip(ys, plain, windows):
            dead += self.check(grid, y[None], (lo, hi))
            inside += lo - grid.step_deg / 2 <= theta <= hi + grid.step_deg / 2
        assert dead > 0 and inside > 0, (dead, inside)

    @pytest.mark.parametrize("within", [(-90.0, 90.0), (-np.inf, np.inf)])
    def test_window_over_the_whole_grid_leaves_no_nan(self, setup, within):
        grid = ResponseGrid(*setup[:2])
        ys = _within_frames(setup, grid, 41)
        assert np.array_equal(grid.estimate_batch(ys, within), grid.estimate_batch(ys))

    def test_window_past_the_grid_is_all_nan(self, setup):
        grid = ResponseGrid(*setup[:2])
        ys = _within_frames(setup, grid, 42)[:600]
        assert np.all(np.isnan(grid.estimate_batch(ys, (95.0, 100.0))))
        assert np.all(np.isnan(grid.estimate_batch(ys[:1], (-100.0, -95.0))))


def _nodes(g):
    # the pruning nodes: every 16th grid column and the last one
    return np.minimum(np.arange(0, g + _CELL_COLUMNS - 1, _CELL_COLUMNS), g - 1)


def _bounds(grid, ys):
    # the per-row float32 cell bounds and best node amplitudes of the coarse
    # pass, relative to ||y||, for rows of energy ||y||^2, in scratch of its own
    g = len(grid.angles_deg)
    total = np.sum(np.abs(ys) ** 2, axis=1)
    scratch = np.empty(len(ys) * g, dtype=complex), np.empty(len(ys) * g), np.empty(ys.shape, dtype=np.complex64)
    return grid._bounds(ys, total, *scratch)[:2]


def _two_tone_frames(grid, u_peaks):
    # frames with v = W^T (conj(s) * y) = (e^{i pi u0}, 0, ..., 0, e^{i pi N u0}):
    # |z(u)^H y| = |a(u)^H v| = 2 |cos(pi (N - 1) (u - u0) / 2)| peaks at u0
    # and bends and rises about as sharply as N tones can
    poly = grid.schedule.combiners * grid.symbols.conj()[:, None]
    n = poly.shape[1]
    v = np.zeros((len(u_peaks), n), dtype=complex)
    v[:, 0], v[:, -1] = np.exp(1j * np.pi * u_peaks), np.exp(1j * np.pi * n * u_peaks)
    return np.linalg.lstsq(poly.T, v.T, rcond=None)[0].T


def _node_amplitudes(grid, ys):
    # the coarse pass's float32 |zh^H yh| at every node, which _bounds leaves
    # in the float32 view of its scratch ``buf``
    m = grid._nodes_h.shape[1]
    total = np.sum(np.abs(ys) ** 2, axis=1)
    buf = np.empty(len(ys) * m)
    grid._bounds(ys, total, np.empty(len(ys) * m, dtype=complex), buf, np.empty(ys.shape, dtype=np.complex64))
    return buf.view(np.float32)[: len(ys) * m].reshape(len(ys), m)


def _worst_residual_frames(grid):
    # one frame per cell, along the largest residual of its stretched
    # columns' unit responses from the chord between its nodes' (the column
    # before its first node: from that node's), where the cell's bound is
    # nearly tight: their worst columns reach 0.9993 of it at 0.05 deg, and
    # on the norm-dip grid a reach 1% too small no longer covers them
    g = len(grid.angles_deg)
    responses, norms = _responses(grid), np.sqrt(_norms2(grid))[:, None]
    unit = np.divide(responses, norms, out=np.zeros_like(responses), where=norms > 0.0)
    nodes = _nodes(g)
    frames = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        cols = np.arange(max(a - 1, 0), b + 1)
        t = np.clip((cols - a) / (b - a), 0.0, 1.0)[:, None]
        residual = unit[cols] - (1.0 - t) * unit[a] - t * unit[b]
        frames.append(residual[np.argmax(np.linalg.norm(residual, axis=1))])
    return np.array(frames)


class TestCellBoundSoundness:
    # the theory the pruning rests on, checked against float64 amplitudes:
    # for every cell, |zh^H y| / ||y|| at each column from one before its
    # first node to its second, plus whatever the row's float32
    # best node overstates the float64 one by, is at most the cell's float32
    # bound, so a cell whose bound lies below the best node cannot hold the
    # row's largest amplitude

    @staticmethod
    def check(grid, ys):
        bound, best = _bounds(grid, ys)
        norms2 = _norms2(grid)
        amp = np.abs(ys @ grid._responses_h) / np.where(norms2 > 0.0, np.sqrt(norms2), np.inf)
        amp /= np.linalg.norm(ys, axis=1)[:, None]
        nodes = _nodes(len(grid.angles_deg))
        excess = np.maximum(best - amp[:, nodes].max(axis=1), 0.0)
        for c, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            worst = amp[:, max(a - 1, 0) : b + 1].max(axis=1) + excess
            assert np.all(worst <= bound[:, c]), (c, np.max(worst - bound[:, c]))

    @pytest.mark.parametrize("step", [0.05, 1.0])
    def test_schedule_grid(self, setup, step):
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots, step)
        rng = np.random.default_rng(96)
        sigma2 = noise_variance(cfg)
        u = np.sin(np.deg2rad(grid.angles_deg))
        frames = [
            rng.standard_normal((100, 17)) + 1j * rng.standard_normal((100, 17)),
            synthesize_observation(np.zeros(17, dtype=complex), sigma2, 100, rng),
            _two_tone_frames(grid, np.r_[u[::7], rng.uniform(-1.0, 1.0, 200)]),
            _worst_residual_frames(grid),
        ]
        for theta in np.r_[rng.uniform(-5.0, 5.0, 20), rng.uniform(85.0, 89.99, 20), -rng.uniform(85.0, 89.99, 20)]:
            for dist in (10.0, 300.0):
                signal = received_signal(sched, NodeGeometry(dist, theta), pilots, cfg)
                frames.append(synthesize_observation(signal, sigma2, 3, rng))
        self.check(grid, np.concatenate(frames))

    def test_margin_covers_float32_rounding(self, setup):
        # eta = sqrt(2) gamma_2T + 8u, derived in ResponseGrid.__init__,
        # bounds how far a float32 node amplitude of the coarse pass lies
        # from the float64 |zh^H y| / ||y||, and each cell's float32 reach
        # holds its float64 reach plus 2 eta; with eta = 0 the reach falls
        # short of that
        sched, pilots, cfg = setup
        grid = ResponseGrid(sched, pilots)
        tu = 2 * sched.num_probes * 2.0**-24
        eta = np.sqrt(2.0) * tu / (1.0 - tu) + 8 * 2.0**-24
        rng = np.random.default_rng(99)
        frames = [
            synthesize_observation(np.zeros(17, dtype=complex), noise_variance(cfg), 100, rng),
            _worst_residual_frames(grid),
        ]
        for theta in rng.uniform(-89.9, 89.9, 50):
            for dist in (10.0, 300.0):
                signal = received_signal(sched, NodeGeometry(dist, theta), pilots, cfg)
                frames.append(synthesize_observation(signal, noise_variance(cfg), 2, rng))
        ys = np.concatenate(frames)
        yh = ys / np.linalg.norm(ys, axis=1)[:, None]
        ys = np.concatenate([ys, 1e-150 * yh, yh, 1e150 * yh])
        zh = _responses(grid) / np.sqrt(_norms2(grid))[:, None]
        nodes = _nodes(len(grid.angles_deg))
        exact = np.abs(ys @ zh[nodes].conj().T) / np.linalg.norm(ys, axis=1)[:, None]
        assert np.max(np.abs(_node_amplitudes(grid, ys) - exact)) <= eta
        # the float64 reach: the largest residual of a cell's unit responses
        # from its chord, over the columns from one before its first node to
        # its second
        for c, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
            cols = np.arange(max(a - 1, 0), b + 1)
            t = np.clip((cols - a) / (b - a), 0.0, 1.0)[:, None]
            reach = np.max(np.linalg.norm(zh[cols] - (1.0 - t) * zh[a] - t * zh[b], axis=1))
            assert grid._cell_reach[c] >= reach + 2.0 * eta, c

    @pytest.mark.parametrize("grid_of", ["0.05", "1.0", "dip"])
    def test_argmin_on_a_cells_first_or_last_column(self, setup, grid_of):
        # frames along the response of a cell's node a or of its last scored
        # column b - 1, where the argmin's left or right neighbour lies in the
        # next cell over, which the search must keep: on the default and a
        # coarse grid, and on the norm-dip grid of
        # test_matches_dense_search_beside_a_norm_dip
        if grid_of == "dip":
            sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
            grid = ResponseGrid(sched, PilotSequence([1e-3, np.sqrt(1.0 - 1e-6)]), 90.0 / 1792)
        else:
            grid = ResponseGrid(*setup[:2], float(grid_of))
        nodes = _nodes(len(grid.angles_deg))[1:-1]
        cols = np.r_[nodes, nodes - 1]
        rng = np.random.default_rng(len(cols))
        ys = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(cols)))[:, None] * _responses(grid)[cols]
        assert np.array_equal(np.argmin(grid.costs_batch(ys), axis=1), cols)
        assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys))

    def test_argmin_before_a_two_column_last_cell(self):
        # A 16j + 2 column grid ends in a two-column cell [a, a + 1], whose
        # chord is exact, so only the step to column a - 1 gives it a reach.
        # Frames along zh_{a-1}, plus a part orthogonal to the last three
        # columns that lifts node a - 16 above nodes a and a + 1: column
        # a - 1 is the argmin, and its right neighbour a is kept only by the
        # last cell's bound on column a - 1.  A 64-antenna array gives the
        # three columns near 90 deg enough contrast.
        grid = ResponseGrid(ProbeSchedule.uniform(17, 64), PilotSequence.constant(17), 180.0 / 33)
        g, a = len(grid.angles_deg), 32
        assert g == 2 * _CELL_COLUMNS + 2
        zh = _responses(grid) / np.sqrt(_norms2(grid))[:, None]
        q = np.linalg.qr(zh[a - 1 :].T)[0]
        lift = zh[a - 16] - q @ (q.conj().T @ zh[a - 16])
        y = zh[a - 1] + 0.9 * lift
        amp = np.abs(zh.conj() @ y)
        assert np.argmax(amp) == a - 1 and amp[a - 16] - max(amp[a], amp[a + 1]) > 0.05
        rng = np.random.default_rng(11)
        ys = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))[:, None] * np.r_[1.0, 1e-3, 1e3, 1.0, 1.0, 1.0][:, None] * y
        assert np.all(np.argmin(grid.costs_batch(ys), axis=1) == a - 1)
        assert np.array_equal(grid.estimate_batch(ys), _dense_estimates(grid, ys))
        assert np.array_equal(grid.estimate_batch(ys[:1]), _dense_estimates(grid, ys[:1]))
        self.check(grid, ys)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_two_antenna_grids(self, eps):
        # the zero-norm grid of test_zero_norm_columns (eps = 0) and the
        # norm-dip grid of test_matches_dense_search_beside_a_norm_dip
        sched = ProbeSchedule([0.0, 90.0], [[1.0, 1.0], [1.0, -1.0]])
        grid = ResponseGrid(sched, PilotSequence([eps, np.sqrt(1.0 - eps**2)]))
        rng = np.random.default_rng(97)
        ys = rng.standard_normal((600, 2)) + 1j * rng.standard_normal((600, 2))
        ys[:300] = 0.01 * ys[:300] + _responses(grid)[rng.integers(0, len(grid.angles_deg), 300)]
        ys[300:400, 0] += np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 100))
        self.check(grid, np.concatenate([ys, _worst_residual_frames(grid)]))


@pytest.mark.parametrize("step", [0.05, 1.0])
def test_estimate_batch_scratch_stays_within_budget(setup, step):
    # tracemalloc sees numpy's buffers: noise-only, signal or all-zero
    # frames (all-zero rows keep every cell) take at most 4.5 MiB at the
    # peak, 512 of them at the default step and more than two blocks at
    # the coarse step, whose blocks hold more rows, and so do 3,000
    # noise-only frames (several blocks) at the default step, with no
    # window, the auth-lba verifier's or one over half the grid, whose
    # float64 check scores thousands of near columns
    sched, pilots, cfg = setup
    grid = ResponseGrid(sched, pilots, step)
    n = 512 if step == 0.05 else 2 * grid.block_rows + 1
    rng = np.random.default_rng(98)
    signal = received_signal(sched, NodeGeometry(10.0, 20.0), pilots, cfg)
    batches = [
        synthesize_observation(0.0 * signal, noise_variance(cfg), n, rng),
        synthesize_observation(signal, noise_variance(cfg), n, rng),
        np.zeros((n, 17), dtype=complex),
    ]
    if step == 0.05:
        batches.append(synthesize_observation(0.0 * signal, noise_variance(cfg), 3000, rng))
    for ys in batches:
        for within in (None, (-0.078, 0.078), (-90.0, 0.0)):
            tracemalloc.start()
            try:
                grid.estimate_batch(ys, within)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4.5 * 2**20, (within, peak)


class TestCramerRaoBound:
    # an analytic oracle: the spread of 4,000 Alice frames' estimates at
    # broadside lies within 5% of the deterministic CRB with the gain
    # unknown (the RMSE's own sampling error is about 1.1%)
    @pytest.fixture(scope="class")
    def grid(self, setup):
        return ResponseGrid(*setup[:2])

    @pytest.mark.parametrize("dist", [10.0, 100.0, 300.0])
    def test_rmse_at_broadside_meets_the_bound(self, setup, grid, dist):
        sched, pilots, cfg = setup
        rng = np.random.default_rng(int(dist))
        signal = received_signal(sched, NodeGeometry(dist, 0.0), pilots, cfg)
        thetas = grid.estimate_batch(synthesize_observation(signal, noise_variance(cfg), 4000, rng))
        amplitude = np.sqrt(cfg.tx_power_watts) * channel_amplitude(dist, cfg.carrier_freq_hz)
        crb = deterministic_crb_deg(sched.combiners, pilots.symbols, amplitude, noise_variance(cfg), 0.0)
        assert np.sqrt(np.mean(thetas**2)) == pytest.approx(crb, rel=0.05)
