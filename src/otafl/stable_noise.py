"""Symmetric alpha-stable sampling and clip-probability utilities.

The channel interference model is a symmetric alpha-stable (SaS) law with
tail index alpha in (0, 2] and scale tau > 0. alpha = 2 is Gaussian with
variance 2*tau**2, alpha = 1 is Cauchy with scale tau, and for alpha < 2 the
survival function P(|X| > x) decays like x**(-alpha).
"""

from __future__ import annotations

import math
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


# Samples drawn per pass of estimate_unclipped_prob: large enough that the
# per-chunk overhead is negligible, small enough that the temporaries stay a
# few tens of MB whatever the sample count.
_CHUNK = 2**20


class RegimeError(ValueError):
    """A threshold/parameter combination falls outside the supported regime."""


@dataclass(frozen=True)
class StableParams:
    """Tail index and scale of a symmetric alpha-stable law."""

    alpha: float
    tau: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


def sample_sas(params: StableParams, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `dim` i.i.d. symmetric alpha-stable variates (Chambers-Mallows-Stuck).

    A standardized variate is built from one uniform angle on (-pi/2, pi/2)
    and one unit exponential, then scaled by tau, so samples at scale c*tau
    are exactly c times the samples at scale tau under the same generator
    state. alpha = 1 short-circuits to the Cauchy tangent form and never
    touches the exponential draw.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    alpha = params.alpha
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=dim)
    if alpha == 1.0:
        return params.tau * np.tan(u)
    w = rng.standard_exponential(dim)
    # Generic CMS transform; at alpha = 2 it reduces to 2*sqrt(w)*sin(u),
    # i.e. a Gaussian with variance 2, without any division by zero.
    x = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    x *= (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return params.tau * x


def tail_prob_simplified(params: StableParams, threshold: float) -> float:
    """Constant-free asymptote (tau/C)**alpha for the clipped-entry probability.

    This is the complement of the simplified survival probability of an entry
    at clip threshold C. The value is clamped to [0, 1] because the power law
    exceeds one below C = tau, where the asymptote carries no information.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return min(1.0, (params.tau / threshold) ** params.alpha)


def estimate_unclipped_prob(
    params: StableParams,
    c: float | Sequence[float],
    g: float,
    n_samples: int,
    rng: np.random.Generator,
    difference_law: str = "exact",
) -> float | np.ndarray:
    """Monte Carlo probability that a noisy entry stays inside the clip window.

    The deviation between an entry's noise and the median entry's noise is
    compared against the worst-case margin c - sqrt(2)*g, where g bounds the
    per-client gradient norms. ``c`` is one threshold, giving a float, or a
    1-D sequence of thresholds, giving one probability per threshold; every
    threshold is scored on the same draws, so the estimate never falls as C
    grows. The deviation is drawn from ``rng`` in chunks of ``_CHUNK``
    samples, which bounds memory by the chunk rather than by ``n_samples``.
    ``difference_law`` selects how the deviation is modeled:

    * ``"exact"``: the difference of two independent SaS(alpha, tau) draws,
      which by the stability property has scale 2**(1/alpha) * tau;
    * ``"sqrt2"``: a single draw at scale sqrt(2) * tau. The two agree only
      at alpha = 2.

    At small alpha part of the law's mass lies beyond the float maximum
    (about 1e-3 at alpha = 0.01): such draws are +-inf, and the deviation
    inf - inf of two draws of one sign is nan, which counts as clipped. The
    floating-point warnings they raise are silenced.
    """
    if not g >= 0.0:
        raise ValueError(f"gradient bound g must be >= 0, got {g}")
    thresholds = np.asarray(c, dtype=float)
    if thresholds.ndim > 1 or thresholds.size == 0:
        raise ValueError(f"c must be a threshold or a non-empty 1-D sequence of them, got {c!r}")
    sqrt2_g = math.sqrt(2.0) * g
    for threshold in np.atleast_1d(thresholds):
        if threshold <= sqrt2_g:
            raise RegimeError(
                f"clip threshold must exceed sqrt(2)*G: C={threshold}, sqrt(2)*G={sqrt2_g}"
            )
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if difference_law not in ("exact", "sqrt2"):
        raise ValueError(f"unknown difference_law {difference_law!r}")
    margins = np.atleast_1d(thresholds) - sqrt2_g
    inside = np.zeros(margins.size, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n_samples, _CHUNK):
            size = min(_CHUNK, n_samples - start)
            if difference_law == "exact":
                deviation = sample_sas(params, size, rng) - sample_sas(params, size, rng)
            else:
                deviation = sample_sas(StableParams(params.alpha, math.sqrt(2.0) * params.tau), size, rng)
            np.abs(deviation, out=deviation)
            inside += [np.count_nonzero(deviation <= m) for m in margins]
    probs = inside / n_samples
    return float(probs[0]) if thresholds.ndim == 0 else probs
