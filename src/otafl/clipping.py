"""Median-anchored and norm-based gradient clipping.

Median-anchored clipping ("mac") subtracts the vector median from every
entry, clips each deviation to a threshold C, and adds the median back, so
extreme entries are pulled to within C of the median while typical entries
pass through untouched. Gradient norm clipping ("gnc") rescales the whole
vector so its Euclidean norm does not exceed C.

Every function works along the last axis, so a stack of vectors, one per row,
is clipped row by row in one call; each row comes out exactly as it would
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stable_noise import _check_choice, _check_positive

__all__ = [
    "ClipMethod",
    "vector_median",
    "mac_clip",
    "gnc_clip",
    "apply_blockwise",
    "clip_statistics",
]

_KINDS = ("mac", "gnc", "none")


@dataclass(frozen=True)
class ClipMethod:
    """Tagged choice of clipping transform applied block-wise on the server."""

    kind: str
    threshold: float | None = None

    def __post_init__(self) -> None:
        _check_choice("kind", self.kind, _KINDS)
        if self.kind != "none":
            _check_positive("threshold", self.threshold)
        elif self.threshold is not None:
            raise ValueError("method 'none' takes no threshold")

    @classmethod
    def mac(cls, threshold: float) -> "ClipMethod":
        return cls("mac", threshold)

    @classmethod
    def gnc(cls, threshold: float) -> "ClipMethod":
        return cls("gnc", threshold)

    @classmethod
    def none(cls) -> "ClipMethod":
        return cls("none")


def vector_median(v: np.ndarray) -> float | np.ndarray:
    """Median of a vector's entries; the mean of the two middle order
    statistics when the length is even. A float for a vector, one median per
    row for a stack of them; a row holding nan has a nan median."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("vector_median of an empty vector")
    # np.median bit for bit without its wrapper's overhead: the same
    # partition (introspective select, expected linear time) of the middle
    # order statistics and of the last entry, where any nan of a row lands,
    # and the same mean, whose sum starts from +0.0
    n = v.shape[-1]
    h = n // 2
    part = np.partition(v, [h, -1] if n % 2 else [h - 1, h, -1], axis=-1)
    m = 0.0 + part[..., h] if n % 2 else (0.0 + part[..., h - 1] + part[..., h]) / 2.0
    m = np.where(np.isnan(part[..., -1]), part[..., -1], m)
    return float(m) if m.ndim == 0 else m


def mac_clip(g: np.ndarray, threshold: float) -> np.ndarray:
    """Clip each entry's deviation from the vector median to `threshold`.

    Entries within the threshold are returned unchanged (not routed through
    the centralize/recover round trip), so the output agrees bit for bit
    with the per-entry form med + sgn(g_i - med) * min(|g_i - med|, C).
    """
    _check_positive("threshold", threshold)
    g = np.asarray(g, dtype=float)
    m = np.asarray(vector_median(g))[..., None]
    deviation = g - m
    inside = np.abs(deviation) <= threshold
    return np.where(inside, g, m + np.sign(deviation) * threshold)


def gnc_clip(g: np.ndarray, threshold: float) -> np.ndarray:
    """Rescale `g` so that its Euclidean norm is at most `threshold`."""
    _check_positive("threshold", threshold)
    g = np.asarray(g, dtype=float)
    # sqrt(vecdot) is np.linalg.norm bit for bit; the factor is exactly 1
    # wherever the norm is within the threshold
    with np.errstate(divide="ignore"):
        return g * np.minimum(1.0, threshold / np.sqrt(np.vecdot(g, g)))[..., None]


def apply_blockwise(g: np.ndarray, layout: list[int], method: ClipMethod) -> tuple[np.ndarray, np.ndarray]:
    """Clip a flat vector (the last axis) independently in each parameter
    block of `layout`, in one pass. Returns the clipped vector and the share
    of each block that the clip changed, blocks on the last axis: the entries
    beyond the median-anchored threshold for mac, 1 or 0 by the block norm
    for gnc, and 0 for none."""
    g = np.asarray(g, dtype=float)
    if sum(layout) != g.shape[-1]:
        raise ValueError(f"block layout {layout} does not sum to vector length {g.shape[-1]}")
    fractions = np.zeros(g.shape[:-1] + (len(layout),))
    if method.kind == "none":
        return g.copy(), fractions
    clipped = np.empty_like(g)
    start = 0
    for j, size in enumerate(layout):
        block = (..., slice(start, start := start + size))
        if method.kind == "mac":
            clipped[block] = mac_clip(g[block], method.threshold)
            fractions[..., j] = 1.0 - clip_statistics(g[block], method.threshold)[1]
        else:
            clipped[block] = gnc_clip(g[block], method.threshold)
            fractions[..., j] = np.sqrt(np.vecdot(g[block], g[block])) > method.threshold
    return clipped, fractions


def clip_statistics(g: np.ndarray, threshold: float) -> tuple[int | np.ndarray, float | np.ndarray]:
    """(number of entries beyond the median-anchored threshold, unclipped
    fraction), per row for a stack of vectors.

    A deviation exactly equal to the threshold counts as unclipped.
    """
    g = np.asarray(g, dtype=float)
    if g.size == 0:
        raise ValueError("clip_statistics of an empty vector")
    deviation = np.abs(g - np.asarray(vector_median(g))[..., None])
    clipped = np.count_nonzero(deviation > threshold, axis=-1)
    return clipped, 1.0 - clipped / g.shape[-1]

