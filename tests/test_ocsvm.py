import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoa_auth import OcsvmParams, ocsvm, train
from aoa_auth.ocsvm import (
    GAMMA_FLOOR_DEG2,
    MEDIAN_HEURISTIC,
    OcsvmConvergenceError,
    OcsvmModel,
    kernel,
    median_heuristic_gamma,
)

from oracles import dual_objective, projected_gradient_ocsvm
from oracles import reference_median_gamma as _reference_median_gamma
from test_cli import run_fresh


def _traced_peak(fn, *args):
    """fn(*args) and its tracemalloc peak in bytes, after one untraced call:
    a first call can import numpy modules lazily, which tracemalloc would
    count."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernel:
    def test_self_similarity_is_one(self):
        assert kernel(3.7, 3.7, 2.0) == pytest.approx(1.0)

    def test_known_value(self):
        # exp(-0.5 * 2^2) = exp(-2)
        assert kernel(1.0, 3.0, 0.5) == pytest.approx(np.exp(-2.0))

    def test_symmetry_and_broadcast(self):
        x = np.array([0.0, 1.0, -2.0])
        k = kernel(x[:, None], x[None, :], 0.3)
        assert np.array_equal(k, k.T)
        assert np.allclose(np.diag(k), 1.0)

    def test_gram_matrix_exactly_symmetric(self):
        # train reads rows K[i] where the dual update needs columns K[:, i]
        x = np.random.default_rng(10).normal(0.0, 3.0, 301)
        k = kernel(x[:, None], x[None, :], 0.37)
        assert np.array_equal(k, k.T)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            kernel(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match=repr(gamma)):
            kernel(0.0, 1.0, gamma)

    def test_rejects_bool_gamma(self):
        # True passes as the number 1 unless refused by type
        with pytest.raises(ValueError, match="True"):
            kernel(0.0, 1.0, True)


class TestMedianHeuristic:
    def test_two_points(self):
        # single pairwise distance 2 -> median d^2 = 4 -> gamma = 1/8
        assert median_heuristic_gamma(np.array([0.0, 2.0]), 0.0025) == pytest.approx(
            0.125
        )

    def test_floor_engages_for_collapsed_cluster(self):
        x = np.full(50, 0.3)
        assert median_heuristic_gamma(x, 0.0025) == pytest.approx(200.0)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.0, 2.0]),
            np.array([5.0, -1.5]),
            np.random.default_rng(11).permutation(np.linspace(-3.0, 7.0, 301)),
            np.random.default_rng(12).normal(0.0, 0.3, 400),
            np.repeat(np.random.default_rng(13).normal(0.0, 1.0, 30), 7),
            np.random.default_rng(14).integers(-2, 3, 120).astype(float),
        ],
        ids=["l2", "l2-descending", "shuffled", "normal", "repeated", "integers"],
    )
    def test_matches_dense_upper_triangle_bitwise(self, x):
        assert median_heuristic_gamma(x, 1e-12) == _reference_median_gamma(x, 1e-12)

    def test_scale_dependence(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        g1 = median_heuristic_gamma(x, 0.0)
        g2 = median_heuristic_gamma(3.0 * x, 0.0)
        assert g2 == pytest.approx(g1 / 9.0)

    @pytest.mark.parametrize("floor", [np.nan, -1e-6, -np.inf, np.inf])
    def test_rejects_unusable_floor(self, floor):
        with pytest.raises(ValueError, match="floor_deg2"):
            median_heuristic_gamma(np.array([0.0, 1.0, 2.0]), floor)

    @pytest.mark.parametrize(
        "x",
        [np.full(5, 0.3), np.array([0.0, 1e-310, 2e-310]), np.array([0.0, 1e-155, 2e-155])],
        ids=["equal", "squares-underflow", "squares-subnormal"],
    )
    def test_rejects_spread_without_finite_gamma(self, x):
        # the median squared distance is 0 or subnormal and there is no floor
        with pytest.raises(ValueError, match="leave gamma infinite"):
            median_heuristic_gamma(x, 0.0)
        assert median_heuristic_gamma(x, 1e-6) == 1.0 / 2e-6

    @settings(max_examples=150, deadline=None)
    @given(
        l=st.integers(2, 400),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1e-3, 0.04, 1.0, 1e3]),
        decimals=st.sampled_from([None, 0, 1, 2]),
        repeats=st.sampled_from([1, 2, 10]),
        offset=st.sampled_from([0.0, 300.0]),
        floor=st.sampled_from([0.0, 1e-6]),
    )
    def test_matches_all_pairs_median_bitwise(self, l, seed, scale, decimals, repeats, offset, floor):
        # rounding gives heavy ties and repeats exact duplicates, so every
        # way the selection can end is drawn
        x = np.random.default_rng(seed).normal(0.0, 1.0, -(-l // repeats))
        if decimals is not None:
            x = np.round(x, decimals)
        x = np.repeat(x, repeats)[:l] * scale + offset
        try:
            expected = _reference_median_gamma(x, floor)
        except ZeroDivisionError:
            # every difference is 0 and there is no floor
            with pytest.raises(ValueError, match="leave gamma infinite"):
                median_heuristic_gamma(x, floor)
        else:
            assert median_heuristic_gamma(x, floor) == expected

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.3, 0.1, 0.2]),
            np.array([1.0, 1.0, 2.0]),
            # 90, 91, 94 and 95 samples give odd pair counts (one middle
            # rank), 92 and 93 even ones (two); every l enters the search loop
            *(np.random.default_rng(20).normal(0.0, 0.04, l) for l in (90, 91, 92, 93, 94, 95)),
            np.random.default_rng(21).normal(0.0, 0.04, 1000),
            np.random.default_rng(22).standard_cauchy(1000),
            np.full(200, -7.5),
            # half the pairs at 0 and half at 1: the middle ranks straddle
            # every threshold in [0, 1)
            np.repeat([0.0, 1.0], [465, 435]),
            np.repeat([0.0, 0.1], [465, 435]),
            # 1.0 + k ulp: settled rows where fl(x_i + t) rounds
            1.0 + np.arange(500) * np.finfo(float).eps,
            # -0.0 - 0.0 is -0.0, the smallest difference
            np.concatenate([[-1.0, 0.0, -0.0], np.linspace(1.0, 2.0, 97)]),
        ],
        ids=["l3", "l3-tie", "l90", "l91", "l92", "l93", "l94", "l95", "l1000",
             "cauchy", "equal", "straddle", "straddle-0.1", "ulps", "signed-zeros"],
    )
    def test_fixed_cases_match_all_pairs_median(self, x):
        with np.errstate(over="ignore"):
            expected = _reference_median_gamma(x, 1e-12)
        assert median_heuristic_gamma(x, 1e-12) == expected

    @pytest.mark.parametrize("kind", ["float-range", "far-clusters", "one-untied", "normal"])
    def test_search_passes_stay_bounded(self, monkeypatch, kind):
        # every other pass after the first 8 bisects the window's 63-bit
        # patterns; l < 64 takes the whole sample as its starting subsample
        calls = []
        row_ends = ocsvm._row_ends
        monkeypatch.setattr(ocsvm, "_row_ends", lambda *args: calls.append(1) or row_ends(*args))
        rng = np.random.default_rng(24)
        for l in range(2, 71):
            if kind == "float-range":
                x = np.ldexp(rng.choice([-1.0, 1.0], l), rng.integers(-1074, 1024, l))
            elif kind == "far-clusters":
                x = np.concatenate([rng.normal(-1e10, 1e-3, l // 2), rng.normal(1e10, 1e-3, l - l // 2)])
            elif kind == "one-untied":
                x = np.append(np.full(l - 1, 3.0), 3.0 + 2.0**-20)
            else:
                x = rng.normal(0.0, 1.0, l)
            calls.clear()
            with np.errstate(over="ignore"):
                expected = _reference_median_gamma(x, 1e-12)
            if 0.0 < expected < np.inf:
                assert median_heuristic_gamma(x, 1e-12) == expected
            else:
                # differences or squares overflow, and gamma would be 0
                with pytest.raises(ValueError, match="leave gamma 0"):
                    median_heuristic_gamma(x, 1e-12)
            assert len(calls) <= 8 + 2 * 63, l

    def test_leaves_numpy_ma_unimported(self):
        # np.median would import it (about 1.1 MiB) for a NaN check
        run = run_fresh("-c", "\n".join([
            "import sys, numpy as np",
            "from aoa_auth import Scenario, run_auth_sweep",
            "from aoa_auth.ocsvm import median_heuristic_gamma",
            "median_heuristic_gamma(np.random.default_rng(0).normal(0.0, 1.0, 1000), 1e-6)",
            "print('numpy.ma' in sys.modules)",
            "run_auth_sweep(Scenario(eve_aoas_deg=[45.0], eve_distances_m=[10.0], trials=20,"
            " train_size=100, test_size=100, repetitions=2, grid_step_deg=0.25))",
            "print('numpy.ma' in sys.modules)",
        ]))
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False", "False"]

    def test_rejects_spread_that_leaves_gamma_zero(self):
        # differences that overflow make the median squared distance inf,
        # and a floor of 1e308 doubles to inf: either leaves gamma 0, where
        # train's kernel rows would be exp(-0 * inf), NaN
        x = np.array([-1e308, 1e308, 0.0, 5.0])
        with pytest.raises(ValueError, match="leave gamma 0"):
            median_heuristic_gamma(x, 1e-12)
        with pytest.raises(ValueError, match="leave gamma 0"):
            median_heuristic_gamma(np.array([0.0, 1.0]), 1e308)
        with pytest.raises(ValueError, match="leave gamma 0"):
            train(x, OcsvmParams(nu=0.5))

    def test_straddling_middle_ranks_average_their_squares(self):
        # 465 * 464 / 2 + 435 * 434 / 2 = 465 * 435: the lower middle
        # difference is 0 and the upper one 1
        x = np.repeat([0.0, 1.0], [465, 435])
        assert median_heuristic_gamma(x, 0.0) == 1.0 / (2.0 * 0.5)

    @pytest.mark.parametrize("bad, x", [
        ("nan", [0.0, float("nan"), 1.0]),
        ("inf", [0.0, float("inf"), 1.0]),
        ("-inf", [0.0, float("-inf"), float("nan")]),
    ])
    def test_rejects_non_finite_samples(self, bad, x):
        # nan gave gamma nan and inf gave 0.0, without a warning
        with pytest.raises(ValueError, match=f"got {bad}$"):
            median_heuristic_gamma(np.array(x), 1e-6)

    @pytest.mark.parametrize("x", [np.array([]), np.array([1.0])])
    def test_rejects_fewer_than_two_samples(self, x):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic_gamma(x, 1e-6)

    @pytest.mark.parametrize("decimals", [None, 1], ids=["normal", "rounded-0.1"])
    def test_holds_o_l_memory_at_the_train_size_cap(self, decimals):
        # all l(l-1)/2 squared distances at l = 16,384 are 1 GiB
        x = np.random.default_rng(23).normal(0.0, 1.0, 16_384)
        if decimals is not None:
            x = np.round(x, decimals)
        start = time.perf_counter()
        gamma, peak = _traced_peak(median_heuristic_gamma, x, 1e-6)
        assert time.perf_counter() - start < 1.0
        assert peak < 2 * 2**20
        assert 0.0 < gamma < np.inf


def _reference_train(x, params):
    """First-order SMO written with per-iteration masks and column reads.

    Returns (support_points, alphas, rho, gamma, degenerate, iterations,
    violation) and raises OcsvmConvergenceError like ``train``.
    """
    l = len(x)
    if isinstance(params.gamma, str):
        gamma = _reference_median_gamma(x, GAMMA_FLOOR_DEG2)
    else:
        gamma = float(params.gamma)
    k_matrix = kernel(x[:, None], x[None, :], gamma)
    c = 1.0 / (params.nu * l)
    alpha = np.zeros(l)
    n_full = int(params.nu * l)
    alpha[:n_full] = c
    if n_full < l:
        alpha[n_full] = 1.0 - n_full * c
    grad = k_matrix @ alpha

    converged = False
    violation = np.inf
    iterations = 0
    for iterations in range(params.max_iters):
        up = alpha < c
        low = alpha > 0.0
        if not up.any():
            converged = True
            violation = 0.0
            break
        i = int(np.flatnonzero(up)[np.argmin(grad[up])])
        j = int(np.flatnonzero(low)[np.argmax(grad[low])])
        violation = grad[j] - grad[i]
        if violation < params.solver_tol:
            converged = True
            break
        quad = k_matrix[i, i] + k_matrix[j, j] - 2.0 * k_matrix[i, j]
        delta = violation / max(quad, 1e-12)
        delta = min(delta, c - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        grad += delta * (k_matrix[:, i] - k_matrix[:, j])
    if not converged:
        raise OcsvmConvergenceError(float(violation), params.max_iters)

    bound_eps = 1e-9 * c
    margin = (alpha > bound_eps) & (alpha < c - bound_eps)
    degenerate = not np.any(margin)
    if degenerate:
        sv = alpha > bound_eps
        rho = 0.5 * (float(np.min(grad[sv])) + float(np.max(grad[sv])))
    else:
        rho = float(np.mean(grad[margin]))
    keep = alpha > bound_eps
    return (x[keep], alpha[keep], rho, gamma, degenerate, iterations,
            float(violation))


def _bitwise_cases():
    cases = []
    for l, scale in ((2, 1.0), (3, 1.0), (50, 1.0), (1000, 0.04)):
        for nu in (0.015, 0.1, 0.5, 1.0):
            x = np.random.default_rng(12).normal(0.0, scale, l)
            cases.append(pytest.param(x, OcsvmParams(nu=nu), id=f"l{l}-nu{nu}"))
    rng = np.random.default_rng(15)
    cases += [
        pytest.param(rng.normal(0.0, 1.0, 200), OcsvmParams(nu=0.2, gamma=0.77),
                     id="explicit-gamma"),
        # exact duplicates give gradient ties, so first-index selection decides
        pytest.param(np.repeat(rng.normal(0.0, 1.0, 40), 5), OcsvmParams(nu=0.1),
                     id="repeated"),
        pytest.param(rng.integers(-3, 4, 300).astype(float), OcsvmParams(nu=0.05),
                     id="integers"),
        pytest.param(np.array([1.0, 1.0]), OcsvmParams(nu=1.0), id="identical-nu1"),
        pytest.param(np.array([1.0, 1.0]), OcsvmParams(nu=0.5), id="identical"),
        pytest.param(np.random.default_rng(2).normal(0.0, 0.04, 1000),
                     OcsvmParams(nu=0.5), id="degenerate-rho"),
    ]
    # the initial gradient's 16-aligned column window: n_full + 1 non-zero
    # weights at and around a multiple of 16, and row blocks with a lone
    # last row (l = 65) or a short one (l = 1001)
    x = np.random.default_rng(18).normal(0.0, 0.04, 1001)
    for nonzero in (15, 16, 17, 32, 33):
        cases.append(pytest.param(x[:1000], OcsvmParams(nu=(nonzero - 0.5) / 1000),
                                  id=f"window-{nonzero}"))
    cases += [
        pytest.param(x[:65], OcsvmParams(nu=0.3), id="l65"),
        pytest.param(x, OcsvmParams(nu=0.1), id="l1001"),
    ]
    return cases


class TestTrainMatchesReferenceLoop:
    @pytest.mark.parametrize("x, params", _bitwise_cases())
    def test_bitwise_equal(self, x, params):
        points, alphas, rho, gamma, degenerate, iterations, violation = (
            _reference_train(x, params)
        )
        m = train(x, params)
        assert np.array_equal(m.support_points, points)
        assert np.array_equal(m.alphas, alphas)
        assert m.rho == rho
        assert m.gamma == gamma
        assert m.degenerate_rho == degenerate
        assert m.iterations == iterations
        assert m.kkt_violation == violation

    def test_degenerate_case_is_covered(self):
        x = np.random.default_rng(2).normal(0.0, 0.04, 1000)
        assert train(x, OcsvmParams(nu=0.5)).degenerate_rho

    def test_convergence_error_matches(self):
        x = np.random.default_rng(8).normal(0.0, 1.0, 400)
        params = OcsvmParams(nu=0.5, solver_tol=1e-14, max_iters=3)
        with pytest.raises(OcsvmConvergenceError) as ref:
            _reference_train(x, params)
        with pytest.raises(OcsvmConvergenceError) as exc:
            train(x, params)
        assert exc.value.kkt_violation == ref.value.kkt_violation
        assert str(exc.value) == str(ref.value)


def _window_fits():
    # (samples, params, gamma on the floor, degenerate rho)
    rng = np.random.default_rng(30)
    return [
        pytest.param(rng.normal(0.0, 0.01, 400), OcsvmParams(nu=0.015), True, False, id="nu0.015-floor"),
        pytest.param(rng.normal(0.0, 1.0, 300), OcsvmParams(nu=0.1), False, False, id="nu0.1"),
        pytest.param(rng.normal(0.0, 0.5, 300), OcsvmParams(nu=0.5), False, False, id="nu0.5"),
        pytest.param(rng.normal(0.0, 1.0, 200), OcsvmParams(nu=0.2, gamma=0.77), False, False, id="explicit-gamma"),
        pytest.param(np.random.default_rng(2).normal(0.0, 0.04, 1000), OcsvmParams(nu=0.5), True, True,
                     id="degenerate-rho"),
    ]


class TestAcceptanceWindow:
    @pytest.mark.parametrize("x, params, floored, degenerate", _window_fits())
    def test_decision_is_negative_outside(self, x, params, floored, degenerate):
        m = train(x, params)
        assert (m.gamma == 1.0 / (2.0 * GAMMA_FLOOR_DEG2)) == floored
        assert m.degenerate_rho == degenerate
        lo, hi = m.acceptance_window()
        assert lo <= np.min(m.support_points) <= np.max(m.support_points) <= hi
        # the ends, and a dense grid beyond each, out to where every kernel
        # term has underflowed
        far = np.sqrt(800.0 / m.gamma)
        beyond = np.r_[0.0, np.geomspace(1e-12, far, 2000), np.linspace(0.0, far, 2000)]
        for xs in (lo - beyond, hi + beyond):
            f = m.decision(xs)
            assert np.all(f <= 0.0)
            assert np.all(f <= -0.5 * m.rho * (1.0 - 1e-12)), float(np.max(f))

    @pytest.mark.parametrize("rho", [0.0, -0.25])
    def test_no_window_without_a_positive_offset(self, rho):
        m = OcsvmModel(np.array([0.0, 1.0]), np.array([0.5, 0.5]), rho, 2.0, 0.5, 2)
        assert m.acceptance_window() is None

    def test_offset_too_small_for_a_finite_window(self):
        m = OcsvmModel(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 5e-324, 2.0, 0.5, 2)
        assert m.acceptance_window() == (-np.inf, np.inf)


class TestTrain:
    def test_two_identical_samples(self):
        # a zero-width cluster puts the boundary exactly on the point: the
        # decision value is 0 there (rejected by convention) and negative
        # everywhere else
        m = train(np.array([1.0, 1.0]), OcsvmParams(nu=1.0))
        assert m.rho == pytest.approx(1.0)
        val = float(m.decision(1.0))
        assert not val > 0.0 and val == pytest.approx(0.0, abs=1e-12)
        assert float(m.decision(2.0)) < -0.5
        assert m.degenerate_rho

    def test_matches_projected_gradient_oracle(self):
        # spot check; the acceptance suite runs the full 20-instance sweep
        rng = np.random.default_rng(1)
        for trial in range(6):
            l = int(rng.integers(5, 21))
            x = rng.normal(0.0, 1.0, l)
            nu = float(rng.uniform(0.2, 0.9))
            gamma = float(rng.uniform(0.1, 2.0))
            params = OcsvmParams(nu=nu, gamma=gamma, solver_tol=1e-10)
            m = train(x, params)
            k_matrix = kernel(x[:, None], x[None, :], gamma)
            ref = projected_gradient_ocsvm(k_matrix, 1.0 / (nu * l))
            alpha = np.zeros(l)
            idx = {v: i for i, v in enumerate(x)}
            for p, a in zip(m.support_points, m.alphas):
                alpha[idx[p]] = a
            assert dual_objective(alpha, k_matrix) == pytest.approx(
                dual_objective(ref, k_matrix), abs=1e-6
            )

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 0.01, 200)
        params = OcsvmParams(nu=0.1, solver_tol=1e-8)
        m = train(x, params)
        # constraints
        c = 1.0 / (params.nu * len(x))
        assert np.all(m.alphas >= -1e-12)
        assert np.all(m.alphas <= c + 1e-12)
        assert np.sum(m.alphas) == pytest.approx(1.0, abs=1e-9)

    def test_nu_bounds_training_rejection_rate(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 1000)
        for nu in (0.015, 0.1, 0.3):
            m = train(x, OcsvmParams(nu=nu, solver_tol=1e-8, max_iters=2_000_000))
            rejected = np.mean(m.decision(x) < 0.0)
            assert abs(rejected - nu) < 0.01

    def test_support_vector_count_at_least_nu_l(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.005, 500)
        m = train(x, OcsvmParams(nu=0.1))
        assert len(m.support_points) >= 0.1 * 500 - 1

    def test_far_outlier_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.005, 1000)
        m = train(x, OcsvmParams())
        assert float(m.decision(45.0)) < 0.0
        assert float(m.decision(0.0)) > 0.0

    def test_decision_decreases_away_from_cluster(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 0.005, 500)
        m = train(x, OcsvmParams())
        # stay close enough that the kernel term has not underflowed below
        # float resolution against rho
        scan = m.decision(np.linspace(0.05, 0.3, 30))
        assert np.all(np.diff(scan) < 0.0)

    def test_explicit_gamma_respected(self):
        x = np.random.default_rng(7).normal(0.0, 1.0, 50)
        m = train(x, OcsvmParams(gamma=0.77))
        assert m.gamma == 0.77

    def test_convergence_error_carries_violation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, 400)
        with pytest.raises(OcsvmConvergenceError) as exc:
            train(x, OcsvmParams(nu=0.5, solver_tol=1e-14, max_iters=3))
        assert exc.value.kkt_violation > 0.0

    def test_rejects_tiny_training_set(self):
        with pytest.raises(ValueError):
            train(np.array([1.0]))

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            OcsvmParams(nu=0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match=repr(gamma)):
            OcsvmParams(gamma=gamma)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_samples(self, bad):
        # without the check the fit spent max_iters on a NaN gradient
        x = np.random.default_rng(17).normal(0.0, 1.0, 200)
        x[50] = bad
        with pytest.raises(ValueError, match=repr(bad)):
            train(x, OcsvmParams(max_iters=20_000))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(solver_tol=0.0),
            dict(solver_tol=-1e-6),
            dict(solver_tol=float("nan")),
            dict(solver_tol=float("inf")),
            dict(max_iters=0),
            dict(max_iters=-5),
            dict(max_iters=float("nan")),
            dict(max_iters=float("inf")),
            dict(max_iters=2.5),
            dict(max_iters=True),
            dict(nu=True),
            dict(nu="0.1"),
            # True passed as the number 1: a fit then stopped at once,
            # unconverged, at a KKT violation below 1
            dict(solver_tol=True),
            dict(gamma=True),
        ],
    )
    def test_rejects_solver_settings_that_cannot_converge(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            OcsvmParams(**kwargs)

    def test_records_solver_diagnostics(self):
        x = np.random.default_rng(16).normal(0.0, 1.0, 100)
        m = train(x, OcsvmParams(nu=0.2))
        assert m.iterations > 0
        assert 0.0 <= m.kkt_violation < OcsvmParams().solver_tol
        m1 = train(x, OcsvmParams(nu=1.0))
        assert m1.iterations == 0 and m1.kkt_violation == 0.0
        assert m1.kernel_rows == 0

    def test_computes_few_kernel_rows(self):
        x = np.random.default_rng(19).normal(0.0, 0.04, 1000)
        m = train(x, OcsvmParams(nu=0.1))
        assert 0 < m.kernel_rows < 0.5 * len(x)

    def test_train_holds_no_square_array(self):
        # an l x l Gram matrix alone is 8 l^2 bytes (7.6 MiB at l = 1000)
        l = 1000
        x = np.random.default_rng(19).normal(0.0, 0.04, l)
        tracemalloc.start()
        try:
            train(x, OcsvmParams(nu=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * l**2

    def test_fit_peak_stays_under_2_5_mib(self):
        # all l(l-1)/2 squared distances alone are 3.8 MiB at l = 1000
        x = np.random.default_rng(19).normal(0.0, 0.04, 1000)
        _, peak = _traced_peak(train, x, OcsvmParams(nu=0.1))
        assert peak < 2.5 * 2**20

    def test_gamma_string_must_be_known(self):
        with pytest.raises(ValueError):
            OcsvmParams(gamma="mean-heuristic")
        assert OcsvmParams(gamma=MEDIAN_HEURISTIC).gamma == MEDIAN_HEURISTIC

