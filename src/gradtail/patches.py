"""Random rectangular patch proposals over a pixel grid, plus the exact complement."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Rect = tuple[int, int, int, int]  # row0, col0, height, width


@dataclass
class PatchSet:
    """Six (by default) rectangles and the leftover-pixel region of one grid.

    ``complement`` is derived from the rectangles: the flat pixel indices
    (row-major) of every pixel none covers; it may be empty when the
    rectangles blanket the grid.
    """

    rects: list[Rect]
    height: int
    width: int
    complement: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        covered = np.zeros(self.height * self.width, dtype=bool)
        for r0, c0, h, w in self.rects:
            if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > self.height or c0 + w > self.width:
                raise ValueError(f"rect {(r0, c0, h, w)} outside {self.height}x{self.width} grid")
            covered[self._rect_indices((r0, c0, h, w))] = True
        self.complement = np.flatnonzero(~covered)

    def _rect_indices(self, rect: Rect) -> np.ndarray:
        r0, c0, h, w = rect
        rows = np.arange(r0, r0 + h)[:, None] * self.width
        return (rows + np.arange(c0, c0 + w)[None, :]).ravel()

    def regions(self) -> list[np.ndarray]:
        """Flat pixel indices per region: the rectangles, then the complement."""
        return [self._rect_indices(r) for r in self.rects] + [self.complement]


def check_sampler(size_min: int, size_max: int, count: int) -> None:
    """Refuse ``sample_patches`` settings it cannot draw rectangles from."""
    if size_min > size_max:
        raise ValueError("size_min must be <= size_max")
    if size_min < 1 or count < 1:
        raise ValueError("sizes and count must be positive")


def sample_patches(
    height: int,
    width: int,
    rng: np.random.Generator,
    size_min: int = 20,
    size_max: int = 100,
    count: int = 6,
) -> PatchSet:
    """Draw ``count`` possibly-overlapping rectangles with uniform integer sizes
    in [size_min, min(size_max, dim)] (clamped to the grid) and uniform valid
    positions; the complement region picks up every uncovered pixel."""
    if height < 1 or width < 1:
        raise ValueError("zero-area grid")
    check_sampler(size_min, size_max, count)

    lo_h, hi_h = min(size_min, height), min(size_max, height)
    lo_w, hi_w = min(size_min, width), min(size_max, width)
    rects: list[Rect] = []
    for _ in range(count):
        h = int(rng.integers(lo_h, hi_h + 1))
        w = int(rng.integers(lo_w, hi_w + 1))
        r0 = int(rng.integers(0, height - h + 1))
        c0 = int(rng.integers(0, width - w + 1))
        rects.append((r0, c0, h, w))
    return PatchSet(rects, height, width)


def patch_mean_loss(losses: np.ndarray, mask: np.ndarray, region: np.ndarray) -> float:
    """Mean per-pixel loss over region ∩ valid mask; 0.0 when that set is empty."""
    losses, mask = np.asarray(losses), np.asarray(mask, dtype=bool)
    if losses.shape != mask.shape:
        raise ValueError("loss grid and mask shapes differ")
    region = np.asarray(region, dtype=np.intp)
    sel = region[mask.ravel()[region]]
    if sel.size == 0:
        return 0.0
    picked = losses.ravel()[sel]
    return float(np.add.reduce(picked) / picked.size)  # .mean() without its dispatch
