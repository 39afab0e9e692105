"""Analog multi-access uplink: per-client fading, superposition, additive noise.

One simulated round receives g = (1/N) * sum_n h_n * grad_n + xi, where the
h_n are i.i.d. unit-mean fades and xi has i.i.d. symmetric alpha-stable
entries. A channel without a noise law and without fading is the ideal
channel used as the upper-bound baseline (unit gains, no additive term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_noise import StableParams, sample_sas
from .stable_noise import _check_choice, _check_integer, _check_law, _check_not_bool, _check_positive

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
    """Per-client channel gain model; `value` is the gain of the fixed kinds, "none" (1.0) and "deterministic"."""

    kind: str
    value: float = 1.0

    def __post_init__(self) -> None:
        _check_choice("fading", self.kind, _FADING_KINDS)
        if self.kind == "deterministic":
            _check_positive("deterministic gain", self.value)
        else:
            _check_not_bool("fading gain", self.value)  # True equals 1.0 but would make the gains bools
            if self.value != 1.0:  # a gain that no draw applies would still be written into a run's provenance line
                raise ValueError(f"fading gain {self.value} applies to deterministic fading only, not to {self.kind!r}")

    @classmethod
    def rayleigh_unit_mean(cls) -> "FadingModel":
        return cls("rayleigh")

    @classmethod
    def no_fading(cls) -> "FadingModel":
        return cls("none")


@dataclass(frozen=True)
class ChannelConfig:
    """Fading plus noise law for one simulated uplink; noise=None adds no
    noise term."""

    fading: FadingModel
    noise: StableParams | None

    def __post_init__(self) -> None:
        _check_law("noise", self.noise)

    @classmethod
    def ideal(cls) -> "ChannelConfig":
        return cls(FadingModel.no_fading(), None)


def sample_fading(model: FadingModel, n_clients: int, rng: np.random.Generator) -> np.ndarray:
    """One gain per client for one round."""
    _check_integer("n_clients", n_clients, 1)
    if model.kind == "rayleigh":
        return rng.rayleigh(scale=_RAYLEIGH_UNIT_MEAN_SCALE, size=n_clients)
    return np.full(n_clients, model.value)


def transmit(
    client_grads: np.ndarray | list[np.ndarray],
    gains: np.ndarray,
    cfg: ChannelConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Faded superposition average plus one fresh noise draw per entry.

    Takes (N, d) gradients and N gains, or the (R, N, d) gradients of R rows
    with (R, N) gains or N gains that every row shares. The noise is one
    sample_sas draw from `rng`, added to every row. Returns (aggregated
    gradient, noise realization); the noise is all zeros when the channel
    has no noise law. Gains are applied as given, so unit gains without
    noise yield the exact arithmetic mean.
    """
    grads = np.asarray(client_grads, dtype=float)
    if grads.ndim not in (2, 3):
        raise ValueError(f"client gradients must have shape (N, d) or (R, N, d), got {grads.shape}")
    gains = np.asarray(gains, dtype=float)
    if gains.shape != grads.shape[:-1] and gains.shape != grads.shape[-2:-1]:
        raise ValueError(f"got gains of shape {gains.shape} for client gradients of shape {grads.shape}")
    faded_mean = np.mean(gains[..., None] * grads, axis=-2)
    if cfg.noise is None:
        return faded_mean, np.zeros_like(faded_mean)
    noise = sample_sas(cfg.noise, grads.shape[-1], rng)
    return faded_mean + noise, noise


def measure_snr(true_grad: np.ndarray, noise_realization: np.ndarray) -> np.ndarray:
    """10*log10(||signal||^2 / ||noise||^2) along the last axis; +inf for
    zero noise (the ideal channel's), -inf for zero signal and wherever the
    ratio underflows, as against infinite noise power."""
    signal = np.sum(np.square(np.asarray(true_grad, dtype=float)), axis=-1)
    noise = np.sum(np.square(noise_realization), axis=-1)
    # math.log10, not np.log10: numpy's SIMD log can differ in the last bit
    snr = [
        math.inf if n == 0.0 else -math.inf if s / n == 0.0 else 10.0 * math.log10(s / n)
        for s, n in zip(np.ravel(signal).tolist(), np.ravel(noise).tolist())
    ]
    return np.reshape(snr, signal.shape)
