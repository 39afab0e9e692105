"""Median-anchored and norm-based gradient clipping.

Median-anchored clipping ("mac") subtracts the vector median from every
entry, clips each deviation to a threshold C, and adds the median back, so
extreme entries are pulled to within C of the median while typical entries
pass through untouched. Gradient norm clipping ("gnc") rescales the whole
vector so its Euclidean norm does not exceed C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClipMethod",
    "vector_median",
    "mac_clip",
    "gnc_clip",
    "apply_blockwise",
    "block_clip_fractions",
    "clip_statistics",
    "split_blocks",
    "merge_blocks",
]

_KINDS = ("mac", "gnc", "none")


@dataclass(frozen=True)
class ClipMethod:
    """Tagged choice of clipping transform applied block-wise on the server."""

    kind: str
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "none":
            if self.threshold is not None:
                raise ValueError("method 'none' takes no threshold")
        elif self.threshold is None or not self.threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")

    @classmethod
    def mac(cls, threshold: float) -> "ClipMethod":
        return cls("mac", threshold)

    @classmethod
    def gnc(cls, threshold: float) -> "ClipMethod":
        return cls("gnc", threshold)

    @classmethod
    def none(cls) -> "ClipMethod":
        return cls("none")


def vector_median(v: np.ndarray) -> float:
    """Median of a vector's entries; the mean of the two middle order
    statistics when the length is even."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("vector_median of an empty vector")
    # np.median selects via introspective partition, expected linear time.
    return float(np.median(v))


def mac_clip(g: np.ndarray, threshold: float) -> np.ndarray:
    """Clip each entry's deviation from the vector median to `threshold`.

    Entries within the threshold are returned unchanged (not routed through
    the centralize/recover round trip), so the output agrees bit for bit
    with the per-entry form med + sgn(g_i - med) * min(|g_i - med|, C).
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    g = np.asarray(g, dtype=float)
    m = vector_median(g)
    deviation = g - m
    inside = np.abs(deviation) <= threshold
    return np.where(inside, g, m + np.sign(deviation) * threshold)


def gnc_clip(g: np.ndarray, threshold: float) -> np.ndarray:
    """Rescale `g` so that its Euclidean norm is at most `threshold`."""
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    g = np.asarray(g, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm <= threshold:
        return g.copy()
    return g * (threshold / norm)


def apply_blockwise(blocks: list[np.ndarray], method: ClipMethod) -> list[np.ndarray]:
    """Apply the clip method independently to each parameter block."""
    if method.kind == "none":
        return [np.asarray(b, dtype=float).copy() for b in blocks]
    if method.kind == "mac":
        return [mac_clip(b, method.threshold) for b in blocks]
    return [gnc_clip(b, method.threshold) for b in blocks]


def block_clip_fractions(blocks: list[np.ndarray], method: ClipMethod) -> tuple[float, ...]:
    """Share of each block that the clip method changes: the entries beyond
    the median-anchored threshold for mac, 1 or 0 by the block norm for gnc,
    and 0 for none."""
    if method.kind == "mac":
        return tuple(1.0 - clip_statistics(b, method.threshold)[1] for b in blocks)
    if method.kind == "gnc":
        return tuple(1.0 if np.linalg.norm(b) > method.threshold else 0.0 for b in blocks)
    return tuple(0.0 for _ in blocks)


def clip_statistics(g: np.ndarray, threshold: float) -> tuple[int, float]:
    """(number of entries beyond the median-anchored threshold, unclipped fraction).

    A deviation exactly equal to the threshold counts as unclipped.
    """
    g = np.asarray(g, dtype=float)
    if g.size == 0:
        raise ValueError("clip_statistics of an empty vector")
    deviation = np.abs(g - vector_median(g))
    clipped = int(np.count_nonzero(deviation > threshold))
    return clipped, 1.0 - clipped / g.size


def split_blocks(flat: np.ndarray, layout: list[int]) -> list[np.ndarray]:
    """Split a flat parameter vector into consecutive blocks of given lengths."""
    flat = np.asarray(flat)
    if sum(layout) != flat.size:
        raise ValueError(f"block layout {layout} does not sum to vector length {flat.size}")
    bounds = np.cumsum(layout)[:-1]
    return np.split(flat, bounds)


def merge_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """Concatenate parameter blocks back into one flat vector."""
    return np.concatenate([np.asarray(b) for b in blocks])
