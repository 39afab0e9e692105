"""Shared test helpers: independent oracles kept deliberately naive."""

import math

import numpy as np


def finite_difference_gradient(loss_fn, w, step=1e-5):
    """Central finite differences, one coordinate at a time."""
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.size):
        up = w.copy()
        down = w.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def local_update(model, w, data, epochs, batch_size, lr, rng):
    """One client's pseudo-gradient after `epochs` of local minibatch
    descent, one step at a time.

    The result is the running sum of the minibatch gradients along the local
    trajectory, which equals (w - w_final) / lr. A batch that covers the
    whole dataset skips the shuffle, so one full-batch epoch gives exactly
    the local gradient and a one-sample payload (a quadratic objective)
    takes `epochs` full-gradient steps.
    """
    w = np.asarray(w, dtype=float)
    grad_sum = np.zeros_like(w)
    w_local = w.copy()
    m = len(data.y)
    bs = min(batch_size, m)
    for _ in range(epochs):
        order = np.arange(m) if bs == m else rng.permutation(m)
        for start in range(0, m, bs):
            idx = order[start : start + bs]
            g = model.gradient(w_local, data.x[idx], data.y[idx])
            grad_sum += g
            w_local -= lr * g
    return grad_sum


def global_gradient(model, w, client_datas):
    """Gradient of the client-averaged objective, one client at a time."""
    return np.mean([model.gradient(w, d.x, d.y) for d in client_datas], axis=0)


def cms_reference(params, dim, rng):
    """Chambers-Mallows-Stuck in one pass of whole-array expressions: all of
    u, then all of w, each variate's operations in the order sample_sas
    applies them."""
    alpha = params.alpha
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=dim)
    if alpha == 1.0:
        return params.tau * np.tan(u)
    w = rng.standard_exponential(dim)
    x = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    x *= (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return params.tau * x


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance between a sample and a model CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.array([cdf(x) for x in s])
    d_plus = np.max(np.arange(1, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0, n) / n)
    return max(float(d_plus), float(d_minus))


def gaussian_cdf(x, sd):
    return 0.5 * (1.0 + math.erf(x / (sd * math.sqrt(2.0))))


def mac_reference(g, threshold):
    """Scalar per-entry statement of median-anchored clipping.

    In exact arithmetic med + sgn(g_i - med) * min(|g_i - med|, C) equals g_i
    whenever the deviation is within C, so the unclipped branch returns the
    entry itself.
    """
    g = np.asarray(g, dtype=float)
    m = float(np.median(g))
    out = np.empty_like(g)
    for i in range(g.size):
        delta = g[i] - m
        if abs(delta) <= threshold:
            out[i] = g[i]
        else:
            out[i] = m + math.copysign(threshold, delta)
    return out


def fit_tail_exponent(samples, start_quantile=0.99, decades=1.0, n_points=20):
    """Least-squares slope of log P(|X| > x) against log x.

    The grid spans `decades` decades upward from the `start_quantile` of |X|.
    Grid points with no exceedances are dropped; with Poisson counting noise
    the fit uses sqrt(count) weights.
    """
    abs_sorted = np.sort(np.abs(np.asarray(samples, dtype=float)))
    n = abs_sorted.size
    if n < 100:
        raise ValueError("too few samples for a tail fit")
    x0 = abs_sorted[min(n - 1, int(start_quantile * n))]
    xs = np.logspace(np.log10(x0), np.log10(x0) + decades, n_points)
    counts = n - np.searchsorted(abs_sorted, xs, side="right")
    keep = counts > 0
    xs, counts = xs[keep], counts[keep]
    if xs.size < 2:
        raise ValueError("not enough tail mass above the start quantile")
    slope = np.polyfit(np.log(xs), np.log(counts / n), 1, w=np.sqrt(counts))[0]
    return float(slope)
