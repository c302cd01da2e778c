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
# selection passes before every other pass bisects
_FREE_PASSES = 8


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
        elif isinstance(self.gamma, bool) or not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"explicit gamma must be finite and positive, got {self.gamma!r}")
        # a fit with tol <= 0 spends the whole iteration budget, then raises
        if isinstance(self.solver_tol, bool) or not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError(f"solver_tol must be finite and positive, got {self.solver_tol!r}")
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
    if isinstance(gamma, bool) or not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    # a huge gamma overflows -gamma * d * d to -inf, whose exp, 0, is exact
    with np.errstate(over="ignore"):
        return np.exp(-gamma * d * d)


def median_heuristic_gamma(samples: np.ndarray, floor_deg2: float) -> float:
    """gamma = 1 / (2 * max(median pairwise squared distance, floor)).

    The median is exact: it has the bits of ``np.median`` over all l(l-1)/2
    squared distances, but is selected in O(l) memory.  A ValueError names a
    floor that is not finite and >= 0, and a median and floor that leave
    gamma infinite (both 0, or their larger below about 2.8e-309) or 0 (their
    larger above about 9e307, where twice it overflows).
    """
    if not 0.0 <= floor_deg2 < math.inf:
        raise ValueError(f"floor_deg2 must be finite and >= 0, got {floor_deg2!r}")
    x = np.asarray(samples, dtype=float)
    if len(x) < 2:
        raise ValueError("the median heuristic needs at least 2 samples")
    if not np.isfinite(x).all():
        raise ValueError(f"samples must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    # (x_b - x_a)^2 has the bits of (x_a - x_b)^2, so the sorted samples give
    # the same squared distances.  Squaring is monotone on differences >= 0,
    # so the middle squares are the squares of the middle differences, and
    # their mean is np.median's value, without its NaN check (numpy.ma).
    # Samples near the float range can overflow a difference, a square or
    # x + t to inf, which still orders and counts correctly.
    with np.errstate(over="ignore"):
        m = float(np.mean(np.square(_middle_differences(np.sort(x)))))
    spread = max(m, floor_deg2)
    gamma = 1.0 / (2.0 * spread) if spread > 0.0 else math.inf
    if not 0.0 < gamma < math.inf:
        word = "infinite" if gamma else "0"
        raise ValueError(f"the median squared distance {m!r} and floor_deg2 {floor_deg2!r} leave gamma {word}")
    return gamma


def _middle_differences(x: np.ndarray) -> list[float]:
    """The middle order statistics of d_ij = fl(x_j - x_i), i < j, over the
    sorted samples x: the one middle rank of an odd number of pairs, or the
    two of an even number.

    Row i of the pairs is non-decreasing in j, so the pairs with d_ij <= t
    are a prefix of every row, and one ``searchsorted`` pass counts them.
    Passes narrow a window of values [lo, hi] that holds the middle ranks by
    Illinois-style interpolation on the count, starting from the median
    difference of a subsample of about 64 samples.  After ``_FREE_PASSES``
    passes every other one bisects the window's float64 bit patterns (63
    bits for values >= 0), so no input takes more than 8 + 2 x 63 passes.
    The search ends when the window holds one value (tied, quantized or
    duplicated samples), or when a probe's count falls between the two
    middle ranks: they are the largest difference within the probe and the
    smallest beyond it.
    """
    l = len(x)
    n = l * (l - 1) // 2
    ranks = [(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2]
    xp = np.append(x, np.inf)  # xp[l] ends every row
    # the window's ends: the smallest and largest differences
    # (0.0 - -0.0 is -0.0, whose bit pattern is negative; + 0.0 makes it 0.0)
    lo, hi = float(np.min(x[1:] - x[:-1])) + 0.0, float(x[-1] - x[0])
    # Illinois weights: the count's distance from the middle at each side
    target = ranks[0] + 0.5
    f_lo, f_hi = -target, n - target
    side = passes = 0
    while lo < hi:
        if passes == 0:
            s = x[:: max(1, l // 64)]
            d = np.abs(s[:, None] - s[None, :]).ravel()
            # d holds each pair twice and len(s) zeros
            k = len(s) + len(s) * (len(s) - 1) // 2
            t = float(np.partition(d, k)[k])
        else:
            t = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        if (passes >= _FREE_PASSES and passes % 2) or not lo <= t < hi:
            t = _bit_midpoint(lo, hi)
        passes += 1
        c, beyond, within = _row_ends(x, xp, t)
        if c <= ranks[0]:
            lo, f_lo = beyond, c - target
            if side < 0:
                f_hi /= 2.0
            side = -1
        elif c > ranks[-1]:
            hi, f_hi = within, c - target
            if side > 0:
                f_lo /= 2.0
            side = 1
        else:
            # c = ranks[0] + 1 = ranks[1]: the two middle ranks straddle t
            return [within, beyond]
    return [lo] * len(ranks)


def _row_ends(x: np.ndarray, xp: np.ndarray, t: float):
    """The number of pairs with fl(x_j - x_i) <= t; and the smallest
    difference beyond t and the largest within it (0 when no pair is
    within)."""
    # e_i ends row i's pairs within t (i < j < e_i)
    e = np.searchsorted(x, x + t, side="right")
    beyond = xp[e] - x
    within = x[e - 1] - x
    # fl(x_i + t) can put a sample within an ulp of the boundary on the wrong
    # side; such rows are settled by bisection on the rounded difference
    bad = np.flatnonzero((beyond <= t) | (within > t))
    if len(bad):
        xi = x[bad]
        short = beyond[bad] <= t
        # the end is the first j in [a, b] with fl(x_j - x_i) > t
        a = np.where(short, e[bad] + 1, bad + 1)
        b = np.where(short, len(x), e[bad] - 1)
        while (open_ := a < b).any():
            mid = (a + b) >> 1
            past = xp[mid] - xi > t
            b = np.where(open_ & past, mid, b)
            a = np.where(open_ & ~past, mid + 1, a)
        e[bad] = a
        beyond[bad] = xp[a] - xi
        within[bad] = x[a - 1] - xi
    # row i holds e_i - (i + 1) pairs
    l = len(x)
    return int(e.sum()) - l * (l + 1) // 2, float(beyond.min()), float(within.max())


def _bit_midpoint(lo: float, hi: float) -> float:
    """The float halfway between lo and hi >= lo >= 0 in bit patterns, in
    [lo, hi)."""
    a, b = (int(np.float64(v).view(np.int64)) for v in (lo, hi))
    return float(np.int64(a + (b - a) // 2).view(np.float64))


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

    def acceptance_window(self) -> tuple[float, float] | None:
        """The window [min(sv) - D, max(sv) + D] of support angles sv outside
        which ``decision`` is negative, or None when rho <= 0.

        With D = sqrt(max(ln(2 / rho), 0) / gamma), a point farther than D
        from every support angle has every kernel term at most rho / 2, and
        the weights sum to 1, so f(x) <= -rho / 2: a margin far beyond the
        rounding of f, which holds on the window's own ends too.  D is
        infinite where 2 / rho overflows.
        """
        if not self.rho > 0.0:
            return None
        reach = math.sqrt(max(math.log(2.0 / self.rho), 0.0) / self.gamma)
        return float(np.min(self.support_points)) - reach, float(np.max(self.support_points)) + reach


# a huge gamma overflows -gamma * d * d in the kernel rows to -inf, as in
# kernel, and exp gives the exact 0
@np.errstate(over="ignore")
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
    # rows stand in for columns) and re-files a touched index where its
    # weight crossed a bound.  A kernel row is computed, with the kernel's
    # operations, the first time it is needed, so no l x l array is ever
    # held.
    g_up = np.where(alpha < c, grad, np.inf)
    g_low = np.where(alpha > 0.0, grad, -np.inf)
    step = np.empty(l)
    rows = [None] * l
    a = alpha.tolist()
    tol = params.solver_tol
    argmin, argmax = g_up.argmin, g_low.argmax
    subtract, multiply, add, exp = np.subtract, np.multiply, np.add, np.exp

    # max_iters >= 1, so the loop sets the violation before it ends
    iterations = 0
    while iterations < params.max_iters:
        i = int(argmin())
        g_i = g_up.item(i)
        if g_i == np.inf:
            # nu = 1: every weight sits at the box bound, nothing to optimize
            violation = 0.0
            break
        j = int(argmax())
        violation = g_low.item(j) - g_i
        if violation < tol:
            break
        k_i = rows[i]
        if k_i is None:
            d = x.item(i) - x
            k_i = rows[i] = exp(-gamma * d * d)
        k_j = rows[j]
        if k_j is None:
            d = x.item(j) - x
            k_j = rows[j] = exp(-gamma * d * d)
        # K_ii = K_jj = exp(-0.0) = 1 exactly on finite samples
        quad = 2.0 - 2.0 * k_i.item(j)
        a_i, a_j = a[i], a[j]
        # min(violation / max(quad, 1e-12), c - a_i, a_j), without the calls
        delta = violation / (quad if quad > 1e-12 else 1e-12)
        if delta > c - a_i:
            delta = c - a_i
        if delta > a_j:
            delta = a_j
        a[i] = a_i + delta
        a[j] = a_j - delta
        subtract(k_i, k_j, out=step)
        multiply(step, delta, out=step)
        add(g_up, step, out=g_up)
        add(g_low, step, out=g_low)
        # re-file i and j only where a weight crossed a bound: an index in
        # both sets holds the same bits in g_up and g_low, and the inf of an
        # index outside a set stays inf.  i was in the up set and j in the
        # low set; fl(c - delta) can be c, so j's new weight decides whether
        # it re-enters the up set.
        if a_i == 0.0 < a[i]:
            g_low[i] = g_up[i]
        if a[i] >= c:
            g_up[i] = np.inf
        if a_j >= c > a[j]:
            g_up[j] = g_low[j]
        if a[j] == 0.0:
            g_low[j] = -np.inf
        iterations += 1
    else:
        raise OcsvmConvergenceError(float(violation), params.max_iters)
    alpha = np.array(a)
    grad = np.where(alpha < c, g_up, g_low)

    # rho: mean gradient over margin SVs; for all-at-bound solutions fall back
    # to the midpoint over support vectors and flag the model
    # the weights sum to 1, so the largest is at least 1 / l: a threshold of
    # at most 0.5 / l keeps a support vector at any nu (1e-9 c is the smaller
    # for nu >= 2e-9)
    bound_eps = min(1e-9 * c, 0.5 / l)
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
        kernel_rows=sum(row is not None for row in rows),
    )
