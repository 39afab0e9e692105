"""Symmetric alpha-stable sampling and clip-probability utilities.

The channel interference model is a symmetric alpha-stable (SaS) law with
tail index alpha in (0, 2] and scale tau > 0. alpha = 2 is Gaussian with
variance 2*tau**2, alpha = 1 is Cauchy with scale tau, and for alpha < 2 the
survival function P(|X| > x) decays like x**(-alpha).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegimeError",
    "StableParams",
    "sample_sas",
    "tail_prob_simplified",
    "estimate_unclipped_prob",
]


# Samples per pass of estimate_unclipped_prob, and the unit of clip_survival_report's spans.
# sample_sas transforms in place, so a pass peaks near two chunk arrays (17 MB: u and w, plus
# two blocks of transform scratch), one and a mask at alpha = 1; replaying one holds w alone.
_CHUNK = 2**20
_BLOCK = 2**14  # samples per slice of the CMS transform: its temporaries stay in cache


class RegimeError(ValueError):
    """A threshold/parameter combination falls outside the supported regime."""


@dataclass(frozen=True)
class StableParams:
    """Tail index and scale of a symmetric alpha-stable law."""

    alpha: float
    tau: float

    def __post_init__(self) -> None:
        _check_finite("alpha", self.alpha)
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        _check_positive("tau", self.tau)


def _check_not_bool(name: str, value) -> None:
    if isinstance(value, (bool, np.bool_)):  # True as a rate, scale or threshold is a slip, not a 1.0
        raise ValueError(f"{name} must be a number, not a bool, got {value!r}")


def _check_integer(name: str, value, low: int) -> None:
    # bool is an Integral, but True as a count is a slip, not a 1; an int skips the slower ABC check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def _check_positive(name: str, value) -> None:
    # a finite positive float, as at every round's clip, skips the rest
    if type(value) is not float or not 0.0 < value <= sys.float_info.max:
        _check_finite(name, value)
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _check_finite(name: str, value) -> None:
    _check_not_bool(name, value)
    if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):  # nan, inf, 10**400 fail
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_nonnegative(name: str, value) -> None:
    _check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _check_grid(name: str, grid) -> None:
    if len(grid) == 0 or len(set(grid)) < len(grid):  # after each entry's rule; a repeat would run twice
        raise ValueError(f"{name} must be distinct and non-empty, got {list(grid)}")


def _check_law(name: str, value) -> None:
    if value is not None and not isinstance(value, StableParams):  # a bare (alpha, tau) pair has no .tau
        raise ValueError(f"{name} must be a StableParams or None, got {value!r}")


def _check_window(c, g) -> None:
    # Lemma 1's survival window c - sqrt(2)*g must be open; a nan threshold fails too
    if not c > math.sqrt(2.0) * g:
        raise RegimeError(f"clip threshold must exceed sqrt(2)*G: C={c}, sqrt(2)*G={math.sqrt(2.0) * g}")


def sample_sas(params: StableParams, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `dim` i.i.d. symmetric alpha-stable variates (Chambers-Mallows-Stuck).

    A standardized variate is built from one uniform angle on (-pi/2, pi/2)
    and one unit exponential, then scaled by tau, so samples at scale c*tau
    are exactly c times the samples at scale tau under the same generator
    state. alpha = 1 short-circuits to the Cauchy tangent form and never
    touches the exponential draw. All of u is drawn, then all of w; the
    transform runs on the calling thread over ``_BLOCK``-sample slices and
    overwrites u with x.
    """
    _check_integer("dim", dim, 1)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=dim)
    if params.alpha == 1.0:
        return np.multiply(np.tan(u, out=u), params.tau, out=u)
    _transform(u.reshape(-1), rng.standard_exponential(dim).reshape(-1), params.alpha, params.tau)  # a view of u
    return u


def _transform(x: np.ndarray, w: np.ndarray, alpha: float, tau: float) -> None:
    # Generic CMS transform over flat slices, so (R, dim) draws loop alike. At alpha = 2 it
    # reduces to 2*sqrt(w)*sin(u), a Gaussian with variance 2, without any division by zero.
    a, b = np.empty((2, min(_BLOCK, x.size)))
    for s in range(0, x.size, _BLOCK):
        xs, sa, sb = x[s : s + _BLOCK], a[: x.size - s], b[: x.size - s]
        np.sin(np.multiply(xs, alpha, out=sa), out=sa)
        sa /= np.power(np.cos(xs, out=sb), 1.0 / alpha, out=sb)
        np.cos(np.multiply(xs, 1.0 - alpha, out=sb), out=sb)
        np.power(np.divide(sb, w[s : s + _BLOCK], out=sb), (1.0 - alpha) / alpha, out=sb)
        np.multiply(np.multiply(sa, sb, out=sa), tau, out=xs)


def tail_prob_simplified(params: StableParams, threshold: float) -> float:
    """Constant-free asymptote (tau/C)**alpha for the clipped-entry probability.

    This is the complement of the simplified survival probability of an entry
    at clip threshold C. The value is clamped to [0, 1] because the power law
    exceeds one below C = tau, where the asymptote carries no information.
    """
    _check_positive("threshold", threshold)
    # tested first, so that a huge tau/C never reaches the float power
    return 1.0 if threshold <= params.tau else (params.tau / threshold) ** params.alpha


def estimate_unclipped_prob(
    params: StableParams,
    c: Sequence[float],
    g: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo probability that a noisy entry stays inside the clip window.

    The deviation between an entry's noise and the median entry's noise is
    compared against the worst-case margin c - sqrt(2)*g, where g bounds the
    per-client gradient norms. ``c`` is a 1-D sequence of thresholds, giving
    one probability per threshold; every threshold is scored on the same
    draws, so the estimate never falls as C grows. The deviation, a
    difference of two SaS(alpha, tau) draws, is by the stability property one
    draw at scale 2**(1/alpha) * tau. So each sample is one SaS(alpha, tau)
    variate, scored against the margin over 2**(1/alpha): the scale never
    grows, so it stays finite. Samples are drawn from ``rng`` in chunks of
    ``_CHUNK``, which bounds memory by the chunk, not by ``n_samples``.

    At small alpha part of the law's mass lies beyond the float maximum
    (about 1e-3 at alpha = 0.01): such a draw is +-inf and counts as clipped.
    Below alpha = 1/1024 every margin is 0, as 2**(1/alpha) saturates to inf,
    and only draws that underflowed to 0 are inside. Warnings are silenced.
    """
    _check_nonnegative("g", g)
    if np.ndim(c) != 1 or len(c) == 0:
        raise ValueError(f"c must be a non-empty 1-D sequence of thresholds, got {c!r}")
    for threshold in c:
        _check_finite("c", threshold)
        _check_window(threshold, g)
    _check_integer("n_samples", n_samples, 1)
    return _count_inside(params, c, g, n_samples, rng, range(-(-n_samples // _CHUNK))) / n_samples


def _count_inside(params: StableParams, c, g: float, n_samples: int, rng: np.random.Generator, chunks: range) -> np.ndarray:
    """Per threshold, how many samples of ``chunks`` of estimate_unclipped_prob's draw stay inside."""
    inside = np.zeros(len(c), dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        margins = (np.asarray(c, dtype=float) - math.sqrt(2.0) * g) / np.float64(2.0) ** (1.0 / params.alpha)
        for _ in range(chunks.start):  # replayed: a uniform is one generator step, an exponential is drawn
            rng.bit_generator.advance(_CHUNK)
            if params.alpha != 1.0:  # sample_sas draws no exponentials at alpha = 1
                rng.standard_exponential(_CHUNK)
        for start in range(chunks.start * _CHUNK, min(chunks.stop * _CHUNK, n_samples), _CHUNK):
            x = sample_sas(params, min(_CHUNK, n_samples - start), rng)
            np.abs(x, out=x)
            inside += [np.count_nonzero(x <= m) for m in margins]
            del x  # before the next chunk's draw, which would otherwise peak at three arrays
    return inside
