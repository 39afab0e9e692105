"""Analog multi-access uplink: per-client fading, superposition, additive noise.

One simulated round receives g = (1/N) * sum_n h_n * grad_n + xi, where the
h_n are i.i.d. unit-mean fades and xi has i.i.d. symmetric alpha-stable
entries. A channel without a noise law and without fading is the ideal
channel used as the upper-bound baseline (unit gains, no additive term).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .stable_noise import StableParams, sample_sas

__all__ = [
    "FadingModel",
    "ChannelConfig",
    "sample_fading",
    "transmit",
    "measure_snr",
]

_FADING_KINDS = ("rayleigh", "none", "deterministic")

# Rayleigh scale that makes the mean gain exactly 1.
_RAYLEIGH_UNIT_MEAN_SCALE = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class FadingModel:
    """Per-client channel gain model; `value` is only used by "deterministic"."""

    kind: str
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _FADING_KINDS:
            raise ValueError(f"kind must be one of {_FADING_KINDS}, got {self.kind!r}")
        if self.kind == "deterministic" and not self.value > 0.0:
            raise ValueError(f"deterministic gain must be positive, got {self.value}")

    @classmethod
    def rayleigh_unit_mean(cls) -> "FadingModel":
        return cls("rayleigh")

    @classmethod
    def no_fading(cls) -> "FadingModel":
        return cls("none")

    @classmethod
    def deterministic(cls, value: float) -> "FadingModel":
        return cls("deterministic", value)


@dataclass(frozen=True)
class ChannelConfig:
    """Fading plus noise law for one simulated uplink; noise=None adds no
    noise term."""

    fading: FadingModel
    noise: StableParams | None

    @classmethod
    def ideal(cls) -> "ChannelConfig":
        return cls(FadingModel.no_fading(), None)


def sample_fading(model: FadingModel, n_clients: int, rng: np.random.Generator) -> np.ndarray:
    """One gain per client for one round."""
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if model.kind == "rayleigh":
        return rng.rayleigh(scale=_RAYLEIGH_UNIT_MEAN_SCALE, size=n_clients)
    if model.kind == "none":
        return np.ones(n_clients)
    return np.full(n_clients, model.value)


def transmit(
    client_grads: np.ndarray | list[np.ndarray],
    gains: np.ndarray,
    cfg: ChannelConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Faded superposition average plus one fresh noise draw per entry.

    Takes (N, d) gradients, N gains and one generator, or (R, N, d), (R, N)
    and R generators for R replicas, each drawing its noise from its own.
    Returns (aggregated gradient, noise realization), a row per replica; the
    noise is None when the channel has no noise law. Gains are applied as
    given, so unit gains without noise yield the exact arithmetic mean.
    """
    grads = np.asarray(client_grads, dtype=float)
    if grads.ndim not in (2, 3):
        raise ValueError(f"client gradients must have shape (N, d) or (R, N, d), got {grads.shape}")
    gains = np.asarray(gains, dtype=float)
    if gains.shape != grads.shape[:-1]:
        raise ValueError(f"got gains of shape {gains.shape} for client gradients of shape {grads.shape}")
    faded_mean = np.mean(gains[..., None] * grads, axis=-2)
    if cfg.noise is None:
        return faded_mean, None
    rngs = [rng] if grads.ndim == 2 else rng
    noise = np.stack([sample_sas(cfg.noise, grads.shape[-1], r) for r in rngs]).reshape(faded_mean.shape)
    return faded_mean + noise, noise


def measure_snr(true_grad: np.ndarray, noise_realization: np.ndarray | None) -> float | np.ndarray:
    """10*log10(||signal||^2 / ||noise||^2) along the last axis; +inf on the
    ideal channel and for zero noise, -inf for zero signal and wherever the
    ratio underflows, as against infinite noise power."""
    signal = np.sum(np.square(np.asarray(true_grad, dtype=float)), axis=-1)
    noise = np.zeros_like(signal) if noise_realization is None else np.sum(np.square(noise_realization), axis=-1)
    # math.log10, not np.log10: numpy's SIMD log can differ in the last bit
    snr = [
        math.inf if n == 0.0 else -math.inf if s / n == 0.0 else 10.0 * math.log10(s / n)
        for s, n in zip(np.ravel(signal).tolist(), np.ravel(noise).tolist())
    ]
    return snr[0] if signal.ndim == 0 else np.reshape(snr, signal.shape)
