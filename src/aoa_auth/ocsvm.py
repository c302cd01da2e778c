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
import numbers
from dataclasses import dataclass, field

import numpy as np

MEDIAN_HEURISTIC = "median-heuristic"
# floor on the median pairwise squared distance, in deg^2; prevents
# gamma -> inf when high SNR collapses the training estimates
GAMMA_FLOOR_DEG2 = 0.0025
# kernel rows per block of the initial gradient
_GRAD_ROWS = 64


@dataclass(frozen=True)
class OcsvmParams:
    nu: float = 0.015
    gamma: float | str = MEDIAN_HEURISTIC
    solver_tol: float = 1e-6
    max_iters: int = 100_000

    def __post_init__(self):
        if isinstance(self.nu, bool) or not (isinstance(self.nu, numbers.Real) and 0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must be a number in (0, 1], got {self.nu!r}")
        if isinstance(self.gamma, str):
            if self.gamma != MEDIAN_HEURISTIC:
                raise ValueError(f"gamma must be a number or {MEDIAN_HEURISTIC!r}")
        elif not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"explicit gamma must be finite and positive, got {self.gamma!r}")
        # a fit with tol <= 0 spends the whole iteration budget, then raises
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError("solver_tol must be finite and positive")
        # a float budget could be nan (no fit ever converges) or inf (a
        # non-converging fit never stops)
        if isinstance(self.max_iters, bool) or not (
            isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1
        ):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


class OcsvmConvergenceError(RuntimeError):
    def __init__(self, kkt_violation: float, max_iters: int):
        self.kkt_violation = kkt_violation
        super().__init__(
            f"one-class SVM did not converge in {max_iters} iterations "
            f"(worst KKT violation {kkt_violation:.3e})"
        )


def kernel(x, y, gamma: float):
    """Gaussian kernel exp(-gamma * (x - y)^2) on scalar angles."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return np.exp(-gamma * d * d)


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
    # kernel rows the fit computed, at most train_size
    kernel_rows: int = field(default=0, compare=False)

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
    if not np.isfinite(x).all():
        raise ValueError(f"training samples must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    if isinstance(params.gamma, str):
        gamma = median_heuristic_gamma(x, GAMMA_FLOOR_DEG2)
    else:
        gamma = float(params.gamma)

    c = 1.0 / (params.nu * l)

    # libsvm-style feasible start: the first floor(nu*l) weights at the box
    # bound, one fractional weight, the rest zero
    alpha = np.zeros(l)
    n_full = int(params.nu * l)
    alpha[:n_full] = c
    if n_full < l:
        alpha[n_full] = 1.0 - n_full * c
    # grad = K @ alpha from the columns of the non-zero weights, in row
    # blocks.  The window is widened to a multiple of 16 columns: OpenBLAS
    # gives such a window the bits of the full product (a window of exactly
    # n_full + 1 columns does not), as the estimator's pruned search relies on.
    m = min(l, -(-(n_full + 1) // 16) * 16)
    grad = np.empty(l)
    for lo in range(0, l, _GRAD_ROWS):
        d = x[lo : lo + _GRAD_ROWS, None] - x[None, :m]
        np.matmul(np.exp(-gamma * d * d), alpha[:m], out=grad[lo : lo + _GRAD_ROWS])

    # first-order working set: i minimizes the gradient over {alpha < c}, j
    # maximizes it over {alpha > 0}, first index on ties.  g_up and g_low are
    # the gradient with +inf / -inf outside those sets; every index lies in
    # at least one, so they hold the whole gradient between them.  Each
    # update adds delta * (K_i - K_j) to both (K is exactly symmetric, so
    # rows stand in for columns) and re-files the two touched indices.  A
    # kernel row is computed, with the kernel's operations, the first time
    # it is needed, so no l x l array is ever held.
    g_up = np.where(alpha < c, grad, np.inf)
    g_low = np.where(alpha > 0.0, grad, -np.inf)
    step = np.empty(l)
    rows = [None] * l
    kernel_rows = 0
    a = alpha.tolist()
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
        for k in (i, j):
            if rows[k] is None:
                d = x.item(k) - x
                rows[k] = np.exp(-gamma * d * d)
                kernel_rows += 1
        k_i = rows[i]
        # K_ii = K_jj = exp(-0.0) = 1 exactly on finite samples
        quad = 2.0 - 2.0 * k_i.item(j)
        delta = violation / max(quad, 1e-12)
        delta = min(delta, c - a[i], a[j])
        a[i] += delta
        a[j] -= delta
        np.subtract(k_i, rows[j], out=step)
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
        kernel_rows=kernel_rows,
    )
