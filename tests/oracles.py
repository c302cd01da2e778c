"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (explicit loops, cmath) and shares no
code with the package under test.
"""

import cmath
import math

import numpy as np


def naive_steering(theta_deg, n_antennas):
    s = math.sin(math.radians(theta_deg))
    return [cmath.exp(1j * math.pi * n * s) for n in range(1, n_antennas + 1)]


def naive_beam_gain(combiner, theta_deg):
    a = naive_steering(theta_deg, len(combiner))
    return sum(w.conjugate() * an for w, an in zip(combiner, a))


def naive_cost(y, z):
    """||y - h z||^2 with the least-squares gain, by explicit residual."""
    zz = sum(abs(v) ** 2 for v in z)
    if zz == 0.0:
        return sum(abs(v) ** 2 for v in y)
    h = sum(v.conjugate() * u for v, u in zip(z, y)) / zz
    return sum(abs(u - h * v) ** 2 for u, v in zip(y, z))


def reference_median_gamma(x, floor_deg2):
    """The median heuristic's gamma from the dense l x l formulation: the
    median of all l(l-1)/2 squared distances above the diagonal."""
    d2 = (x[:, None] - x[None, :]) ** 2
    m = float(np.median(d2[np.triu_indices(len(x), k=1)]))
    return 1.0 / (2.0 * max(m, floor_deg2))


def project_capped_simplex(v, cap):
    """Euclidean projection onto {0 <= a_i <= cap, sum a_i = 1}.

    The projection is clip(v - tau, 0, cap) for the shift tau at which the
    sum of the clipped entries is 1.  That sum is non-increasing and linear
    between its breakpoints v_i - cap and v_i, so tau is found exactly by
    evaluating the sum at the sorted breakpoints and interpolating inside the
    interval where it crosses 1.
    """
    v = np.asarray(v, dtype=float)
    knots = np.sort(np.concatenate([v - cap, v]))
    sums = np.clip(v[None, :] - knots[:, None], 0.0, cap).sum(axis=1)
    # sums[0] = l * cap >= 1 and sums[-1] = 0, so the crossing is inside
    k = int(np.argmax(sums <= 1.0))
    if k == 0:
        return np.clip(v - knots[0], 0.0, cap)
    lo, hi = knots[k - 1], knots[k]
    tau = lo + (sums[k - 1] - 1.0) * (hi - lo) / (sums[k - 1] - sums[k])
    return np.clip(v - tau, 0.0, cap)


def dual_objective(alpha, k_matrix):
    """0.5 * a^T K a, the one-class SVM dual objective."""
    return 0.5 * float(alpha @ k_matrix @ alpha)


def projected_gradient_ocsvm(k_matrix, cap, iters=20_000, tol=1e-12):
    """Reference solver for min 0.5 a^T K a over the capped simplex."""
    l = len(k_matrix)
    alpha = project_capped_simplex(np.full(l, 1.0 / l), cap)
    step = 1.0 / np.linalg.eigvalsh(k_matrix).max()
    prev_obj = np.inf
    for it in range(iters):
        alpha = project_capped_simplex(alpha - step * (k_matrix @ alpha), cap)
        if it % 100 == 0:
            obj = 0.5 * alpha @ k_matrix @ alpha
            if prev_obj - obj < tol:
                break
            prev_obj = obj
    return alpha


def deterministic_crb_deg(combiners, symbols, amplitude, noise_var, theta_deg):
    """Square root of the deterministic Cramér-Rao bound, in degrees, on an
    unbiased estimate of one source's angle whose complex gain h is unknown
    (Stoica & Nehorai, IEEE TASSP 37(5), 1989), for frames h z(theta) + n
    with circular noise of variance ``noise_var`` per sample and
    |h| = ``amplitude``: with d = dz/dtheta, the angle's Fisher information
    with h concentrated out is 2 |h|^2 (||d||^2 - |z^H d|^2 / ||z||^2) / sigma^2."""
    th = math.radians(theta_deg)
    z, d = [], []
    for w, symbol in zip(combiners, symbols):
        terms = [(n, wn.conjugate() * cmath.exp(1j * math.pi * n * math.sin(th))) for n, wn in enumerate(w, 1)]
        z.append(symbol * sum(t for _, t in terms))
        d.append(symbol * sum(1j * math.pi * n * math.cos(th) * t for n, t in terms))
    zz = sum(abs(v) ** 2 for v in z)
    zd = sum(v.conjugate() * u for v, u in zip(z, d))
    dd = sum(abs(u) ** 2 for u in d)
    fisher = 2.0 * amplitude**2 * (dd - abs(zd) ** 2 / zz) / noise_var
    return math.degrees(1.0 / math.sqrt(fisher))
