import tracemalloc

import numpy as np
import pytest

from aoa_auth import OcsvmParams, train
from aoa_auth.ocsvm import (
    GAMMA_FLOOR_DEG2,
    MEDIAN_HEURISTIC,
    OcsvmConvergenceError,
    kernel,
    median_heuristic_gamma,
)

from oracles import dual_objective, projected_gradient_ocsvm


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


def _reference_median_gamma(x, floor_deg2):
    """The dense l x l formulation of the median heuristic."""
    d2 = (x[:, None] - x[None, :]) ** 2
    m = float(np.median(d2[np.triu_indices(len(x), k=1)]))
    return 1.0 / (2.0 * max(m, floor_deg2))


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

    def test_gamma_string_must_be_known(self):
        with pytest.raises(ValueError):
            OcsvmParams(gamma="mean-heuristic")
        assert OcsvmParams(gamma=MEDIAN_HEURISTIC).gamma == MEDIAN_HEURISTIC

