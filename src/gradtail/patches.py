"""Random rectangular patch proposals over a pixel grid, plus the exact complement."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Rect = tuple[int, int, int, int]  # row0, col0, height, width


@dataclass
class PatchSet:
    """Six (by default) rectangles and the leftover-pixel region of one grid.

    ``masks`` holds one boolean (height, width) grid per region: row j is
    rectangle j, and the last row is every pixel no rectangle covers, which
    is all False when the rectangles blanket the grid.
    """

    rects: list[Rect]
    height: int
    width: int
    masks: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.masks = np.zeros((len(self.rects) + 1, self.height, self.width), dtype=bool)
        for mask, (r0, c0, h, w) in zip(self.masks, self.rects):
            if h < 1 or w < 1 or r0 < 0 or c0 < 0 or r0 + h > self.height or c0 + w > self.width:
                raise ValueError(f"rect {(r0, c0, h, w)} outside {self.height}x{self.width} grid")
            mask[r0 : r0 + h, c0 : c0 + w] = True
        self.masks[-1] = ~np.logical_or.reduce(self.masks[:-1])


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
    """Mean per-pixel loss over region ∩ valid mask, both boolean grids of the
    losses' shape; 0.0 when that set is empty."""
    losses, mask = np.asarray(losses), np.asarray(mask, dtype=bool)
    region = np.asarray(region, dtype=bool)
    if losses.shape != mask.shape or region.shape != mask.shape:
        raise ValueError("loss grid, mask and region shapes differ")
    picked = losses[region & mask]  # row-major, as a flat index gather would visit them
    if picked.size == 0:
        return 0.0
    return float(np.add.reduce(picked) / picked.size)  # .mean() without its dispatch
