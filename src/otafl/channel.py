"""Analog multi-access uplink: per-client fading, superposition, additive noise.

One simulated round receives g = (1/N) * sum_n h_n * grad_n + xi, where the
h_n are i.i.d. unit-mean fades and xi has i.i.d. symmetric alpha-stable
entries. Disabling the noise yields the ideal channel used as the
upper-bound baseline (unit gains, no additive term).
"""

from __future__ import annotations

import math
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
    """Fading plus noise law for one simulated uplink.

    With noise_enabled=False the channel is ideal: the orchestration layer
    uses unit gains and no additive noise, regardless of the fading model.
    """

    fading: FadingModel
    noise: StableParams
    noise_enabled: bool = True

    @classmethod
    def ideal(cls) -> "ChannelConfig":
        return cls(FadingModel.no_fading(), StableParams(2.0, 1.0), noise_enabled=False)


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
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Faded superposition average plus one fresh noise draw per entry.

    Returns (aggregated gradient, noise realization); the noise is None when
    the channel is ideal. Gains are applied as given, so passing unit gains
    with noise disabled yields the exact arithmetic mean.
    """
    grads = np.asarray(client_grads, dtype=float)
    if grads.ndim != 2:
        raise ValueError("client gradients must all share one dimension")
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (grads.shape[0],):
        raise ValueError(
            f"got {gains.size} gains for {grads.shape[0]} client gradients"
        )
    faded_mean = np.mean(gains[:, None] * grads, axis=0)
    if not cfg.noise_enabled:
        return faded_mean, None
    noise = sample_sas(cfg.noise, grads.shape[1], rng)
    return faded_mean + noise, noise


def measure_snr(true_grad: np.ndarray, noise_realization: np.ndarray | None) -> float:
    """10*log10(||signal||^2 / ||noise||^2); +inf on the ideal channel."""
    if noise_realization is None:
        return math.inf
    noise_power = float(np.sum(np.square(noise_realization)))
    if noise_power == 0.0:
        return math.inf
    signal_power = float(np.sum(np.square(np.asarray(true_grad, dtype=float))))
    if signal_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_power / noise_power)
