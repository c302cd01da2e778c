"""One-class SVM on scalar angle estimates.

Trains only on the legitimate node's estimated angles and accepts a new
estimate iff the decision function

    f(x) = sum_i alpha_i K(x_i, x) - rho

is positive, with a Gaussian kernel on degrees.  The dual

    min 0.5 * a^T Q a   s.t.  0 <= a_i <= 1/(nu*l),  sum a_i = 1

is solved with SMO-style two-coordinate updates; the pairwise line search is
closed-form under the simplex constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MEDIAN_HEURISTIC = "median-heuristic"
# floor on the median pairwise squared distance, in deg^2; prevents
# gamma -> inf when high SNR collapses the training estimates
GAMMA_FLOOR_DEG2 = 0.0025
# rows of the Gram matrix built per step, so that K is the only l x l array
_GRAM_ROWS = 64


@dataclass(frozen=True)
class OcsvmParams:
    nu: float = 0.015
    gamma: float | str = MEDIAN_HEURISTIC
    solver_tol: float = 1e-6
    max_iters: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must lie in (0, 1]")
        if not isinstance(self.gamma, str) and self.gamma <= 0:
            raise ValueError("explicit gamma must be positive")
        if isinstance(self.gamma, str) and self.gamma != MEDIAN_HEURISTIC:
            raise ValueError(f"gamma must be a number or {MEDIAN_HEURISTIC!r}")
        # a fit with tol <= 0 spends the whole iteration budget, then raises
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError("solver_tol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class OcsvmConvergenceError(RuntimeError):
    def __init__(self, kkt_violation: float, max_iters: int):
        self.kkt_violation = kkt_violation
        super().__init__(
            f"one-class SVM did not converge in {max_iters} iterations "
            f"(worst KKT violation {kkt_violation:.3e})"
        )


def kernel(x, y, gamma: float):
    """Gaussian kernel exp(-gamma * (x - y)^2) on scalar angles."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.exp(-gamma * d * d)


def _gram_matrix(x: np.ndarray, gamma: float) -> np.ndarray:
    """``kernel(x[:, None], x[None, :], gamma)`` with the same operations in
    the same order, built in row blocks."""
    k = np.empty((len(x), len(x)))
    for lo in range(0, len(x), _GRAM_ROWS):
        d = x[lo : lo + _GRAM_ROWS, None] - x[None, :]
        rows = np.multiply(-gamma, d, out=k[lo : lo + _GRAM_ROWS])
        np.multiply(rows, d, out=rows)
        np.exp(rows, out=rows)
    return k


def median_heuristic_gamma(samples: np.ndarray, floor_deg2: float) -> float:
    """gamma = 1 / (2 * max(median pairwise squared distance, floor))."""
    # the l(l-1)/2 squared distances of distinct pairs, filled diagonal by
    # diagonal; (x_b - x_a)^2 has the bits of (x_a - x_b)^2, so any order of
    # the samples gives the same multiset and the same median.  On sorted
    # samples the median's selection runs about twice as fast.
    x = np.sort(np.asarray(samples, dtype=float))
    l = len(x)
    d2 = np.empty(l * (l - 1) // 2)
    start = 0
    for k in range(1, l):
        diag = d2[start:start + l - k]
        np.subtract(x[k:], x[:-k], out=diag)
        np.square(diag, out=diag)
        start += l - k
    m = float(np.median(d2, overwrite_input=True))
    return 1.0 / (2.0 * max(m, floor_deg2))


@dataclass
class OcsvmModel:
    """Trained verifier: support angles, dual weights, offset, kernel width."""

    support_points: np.ndarray
    alphas: np.ndarray
    rho: float
    gamma: float
    nu: float
    train_size: int
    degenerate_rho: bool = field(default=False, compare=False)
    # solver diagnostics of the fit
    iterations: int = field(default=0, compare=False)
    kkt_violation: float = field(default=0.0, compare=False)

    def decision(self, x):
        """f(x) = sum_i alpha_i K(x_i, x) - rho; accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        k = kernel(x[..., None], self.support_points, self.gamma)
        return k @ self.alphas - self.rho


def train(samples, params: OcsvmParams = OcsvmParams()) -> OcsvmModel:
    """Fit the nu-one-class SVM dual by SMO and set rho from margin support
    vectors."""
    x = np.asarray(samples, dtype=float)
    l = len(x)
    if l < 2:
        raise ValueError("need at least 2 training samples")
    if isinstance(params.gamma, str):
        gamma = median_heuristic_gamma(x, GAMMA_FLOOR_DEG2)
    else:
        gamma = float(params.gamma)

    k_matrix = _gram_matrix(x, gamma)
    c = 1.0 / (params.nu * l)

    # libsvm-style feasible start: the first floor(nu*l) weights at the box
    # bound, one fractional weight, the rest zero
    alpha = np.zeros(l)
    n_full = int(params.nu * l)
    alpha[:n_full] = c
    if n_full < l:
        alpha[n_full] = 1.0 - n_full * c
    grad = k_matrix @ alpha

    # first-order working set: i minimizes the gradient over {alpha < c}, j
    # maximizes it over {alpha > 0}, first index on ties.  g_up and g_low are
    # the gradient with +inf / -inf outside those sets; every index lies in
    # at least one, so they hold the whole gradient between them.  Each
    # update adds delta * (K_i - K_j) to both (K is exactly symmetric, so
    # rows stand in for columns) and re-files the two touched indices.
    g_up = np.where(alpha < c, grad, np.inf)
    g_low = np.where(alpha > 0.0, grad, -np.inf)
    step = np.empty(l)
    a = alpha.tolist()
    diag = np.diagonal(k_matrix).tolist()
    tol = params.solver_tol

    converged = False
    violation = np.inf
    iterations = 0
    while iterations < params.max_iters:
        i = int(g_up.argmin())
        g_i = g_up.item(i)
        if g_i == np.inf:
            # nu = 1: every weight sits at the box bound, nothing to optimize
            converged = True
            violation = 0.0
            break
        j = int(g_low.argmax())
        violation = g_low.item(j) - g_i
        if violation < tol:
            converged = True
            break
        k_i = k_matrix[i]
        quad = diag[i] + diag[j] - 2.0 * k_i.item(j)
        delta = violation / max(quad, 1e-12)
        delta = min(delta, c - a[i], a[j])
        a[i] += delta
        a[j] -= delta
        np.subtract(k_i, k_matrix[j], out=step)
        step *= delta
        g_up += step
        g_low += step
        for k, g_k in ((i, g_up.item(i)), (j, g_low.item(j))):
            g_up[k] = g_k if a[k] < c else np.inf
            g_low[k] = g_k if a[k] > 0.0 else -np.inf
        iterations += 1
    if not converged:
        raise OcsvmConvergenceError(float(violation), params.max_iters)
    alpha = np.array(a)
    grad = np.where(alpha < c, g_up, g_low)

    # rho: mean gradient over margin SVs; for all-at-bound solutions fall back
    # to the midpoint over support vectors and flag the model
    bound_eps = 1e-9 * c
    margin = (alpha > bound_eps) & (alpha < c - bound_eps)
    degenerate = not np.any(margin)
    if degenerate:
        sv = alpha > bound_eps
        rho = 0.5 * (float(np.min(grad[sv])) + float(np.max(grad[sv])))
    else:
        rho = float(np.mean(grad[margin]))

    keep = alpha > bound_eps
    return OcsvmModel(
        support_points=x[keep].copy(),
        alphas=alpha[keep].copy(),
        rho=rho,
        gamma=gamma,
        nu=params.nu,
        train_size=l,
        degenerate_rho=degenerate,
        iterations=iterations,
        kkt_violation=float(violation),
    )
