"""Standalone SVG figures: scatters, decision boundaries, and sweep panels.

No plotting dependency; the files are assembled from SVG primitives.

Coordinate mapping: a figure covers the world box ``bounds = (lo, hi)`` on
both axes, drawn into a ``size``-pixel viewport inside a ``margin``-pixel
frame. Pixel x = margin + (x - lo) / (hi - lo) * size; pixel y mirrors the
world y axis (SVG y grows downward): pixel y = margin + (hi - y) / (hi - lo)
* size. The frame corners are labeled with their world coordinates so the
mapping is readable off the file itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import EVAL_BOUNDS, RARE, UNVISITED
from .datasets import Dataset2D, GaussianSpec, log_density
from .mlp import MlpModel, forward_batch

COMMON_COLOR = "#2ca02c"   # green crosses
UNCOMMON_COLOR = "#9467bd"  # purple circles
BOUNDARY_COLOR = "#333333"
MODEL_COLOR = "#1f77b4"
UNVISITED_COLOR = "#bbbbbb"
HIGH_COLOR = "#d62728"
LOW_COLOR = "#2ca02c"
# indexed by code: analysis tail codes, and entropy below/above the median;
# the unvisited code -1 reads the last entry
TAIL_COLORS = ("#2ca02c", "#e6b800", "#d62728", UNVISITED_COLOR)
ENTROPY_COLORS = (LOW_COLOR, HIGH_COLOR, UNVISITED_COLOR)


class SvgCanvas:
    """World-coordinate drawing surface that renders to a single <svg>."""

    def __init__(
        self,
        bounds: tuple[float, float] = EVAL_BOUNDS,
        size: int = 440,
        margin: int = 42,
        origin: tuple[int, int] = (0, 0),
    ):
        lo, hi = bounds
        if hi <= lo:
            raise ValueError(f"bounds must be increasing, got {bounds}")
        self.bounds = (float(lo), float(hi))
        self.size = size
        self.margin = margin
        self.origin = origin
        self.elements: list[str] = []

    @property
    def width(self) -> int:
        return self.size + 2 * self.margin

    @property
    def height(self) -> int:
        return self.size + 2 * self.margin

    def px(self, x: float, y: float) -> tuple[float, float]:
        lo, hi = self.bounds
        scale = self.size / (hi - lo)
        return (
            self.origin[0] + self.margin + (x - lo) * scale,
            self.origin[1] + self.margin + (hi - y) * scale,
        )

    def _fmt(self, v: float) -> str:
        return f"{v:.2f}".rstrip("0").rstrip(".")

    def frame(self, title: str = "") -> None:
        lo, hi = self.bounds
        x0, y0 = self.px(lo, hi)
        self.elements.append(
            f'<rect x="{self._fmt(x0)}" y="{self._fmt(y0)}" width="{self.size}"'
            f' height="{self.size}" fill="none" stroke="#000" stroke-width="1"/>'
        )
        corner_lo = self.px(lo, lo)
        corner_hi = self.px(hi, hi)
        self.text(corner_lo[0], corner_lo[1] + 14, f"({self._fmt(lo)}, {self._fmt(lo)})")
        self.text(corner_hi[0], corner_hi[1] - 5, f"({self._fmt(hi)}, {self._fmt(hi)})", anchor="end")
        if title:
            self.text(x0 + self.size / 2, y0 - 8, title, anchor="middle", bold=True)

    def text(self, px: float, py: float, s: str, anchor: str = "start", bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self.elements.append(
            f'<text x="{self._fmt(px)}" y="{self._fmt(py)}" font-family="sans-serif"'
            f' font-size="11" text-anchor="{anchor}"{weight}>{s}</text>'
        )

    def segments(self, segs: list, color: str, dashed: bool = False, width: float = 1.5) -> None:
        """World-coordinate line segments batched into one path."""
        if not segs:
            return
        parts = []
        for (x1, y1), (x2, y2) in segs:
            p1, p2 = self.px(x1, y1), self.px(x2, y2)
            parts.append(
                f"M{self._fmt(p1[0])} {self._fmt(p1[1])}L{self._fmt(p2[0])} {self._fmt(p2[1])}"
            )
        dash = ' stroke-dasharray="5 4"' if dashed else ""
        self.elements.append(
            f'<path d="{"".join(parts)}" stroke="{color}" stroke-width="{width}"'
            f' fill="none"{dash}/>'
        )

    def polyline(self, points: list, color: str, width: float = 1.5) -> None:
        coords = " ".join(
            f"{self._fmt(px)},{self._fmt(py)}" for px, py in (self.px(x, y) for x, y in points)
        )
        self.elements.append(
            f'<polyline points="{coords}" stroke="{color}" stroke-width="{width}" fill="none"/>'
        )


def render_svg(canvases: list[SvgCanvas], path: str | Path) -> None:
    width = max(c.origin[0] + c.width for c in canvases)
    height = max(c.origin[1] + c.height for c in canvases)
    body = "\n".join(el for c in canvases for el in c.elements)
    Path(path).write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


# ---------------------------------------------------------------------------
# contour extraction (marching squares)
# ---------------------------------------------------------------------------


def contour_segments(
    xs: np.ndarray, ys: np.ndarray, field: np.ndarray, level: float = 0.0
) -> list:
    """Zero-level segments of ``field[i, j] = f(xs[j], ys[i])``.

    Marching squares with linear edge interpolation; saddle cells are split
    using the cell-center value. Returns world-coordinate segment pairs.
    """
    f = np.asarray(field, dtype=np.float64) - level
    if f.shape != (len(ys), len(xs)):
        raise ValueError(f"field shape {f.shape} != (len(ys), len(xs))")
    pos = f > 0.0
    # cells whose four corners are not all on one side
    corner_any = pos[:-1, :-1] | pos[:-1, 1:] | pos[1:, 1:] | pos[1:, :-1]
    corner_all = pos[:-1, :-1] & pos[:-1, 1:] & pos[1:, 1:] & pos[1:, :-1]
    mixed = corner_any & ~corner_all
    segs = []
    for i, j in zip(*np.nonzero(mixed)):
        x0, x1, y0, y1 = xs[j], xs[j + 1], ys[i], ys[i + 1]
        corners = [  # counterclockwise from bottom-left in world terms
            ((x0, y0), f[i, j]),
            ((x1, y0), f[i, j + 1]),
            ((x1, y1), f[i + 1, j + 1]),
            ((x0, y1), f[i + 1, j]),
        ]
        crossings = []
        for k in range(4):
            (pa, va), (pb, vb) = corners[k], corners[(k + 1) % 4]
            if (va > 0.0) != (vb > 0.0):
                t = va / (va - vb)
                crossings.append((pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]), k))
        if len(crossings) == 2:
            (ax, ay, _), (bx, by, _) = crossings
            segs.append(((ax, ay), (bx, by)))
        elif len(crossings) == 4:
            # saddle: pair edges so the contour separates the center correctly
            center = 0.25 * sum(v for _, v in corners)
            c = sorted(crossings, key=lambda t: t[2])
            first_positive = corners[0][1] > 0.0
            if (center > 0.0) == first_positive:
                pairs = [(c[0], c[3]), (c[1], c[2])]
            else:
                pairs = [(c[0], c[1]), (c[2], c[3])]
            for (ax, ay, _), (bx, by, _) in pairs:
                segs.append(((ax, ay), (bx, by)))
    return segs


def _grid(bounds: tuple[float, float], resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = bounds
    xs = np.linspace(lo, hi, resolution)
    ys = np.linspace(lo, hi, resolution)
    gx, gy = np.meshgrid(xs, ys)
    return xs, ys, np.stack([gx.ravel(), gy.ravel()], axis=1)


def analytic_boundary_contour(
    common: GaussianSpec,
    uncommon: GaussianSpec,
    bounds: tuple[float, float] = EVAL_BOUNDS,
    resolution: int = 200,
) -> list:
    """Equal-density curve of the two generators (log densities: same zeros,
    no far-field underflow)."""
    xs, ys, pts = _grid(bounds, resolution)
    diff = log_density(pts, common) - log_density(pts, uncommon)
    return contour_segments(xs, ys, diff.reshape(resolution, resolution))


def model_boundary_contour(
    model: MlpModel, bounds: tuple[float, float] = EVAL_BOUNDS, resolution: int = 200
) -> list:
    """Two-class decision boundary: zero crossing of logit(common) - logit(rare)."""
    xs, ys, pts = _grid(bounds, resolution)
    logits = forward_batch(model, pts)
    if logits.shape[1] != 2:
        raise ValueError("decision contour needs a two-logit classifier")
    diff = logits[:, 0] - logits[:, 1]
    return contour_segments(xs, ys, diff.reshape(resolution, resolution))


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


GLYPH_CHUNK = 1024  # points formatted at a time: bounds the column strings alive at once


def _fmt_column(values: np.ndarray) -> list[str]:
    return [f"{v:.2f}".rstrip("0").rstrip(".") for v in values.tolist()]


@dataclass(frozen=True, eq=False)
class PointGlyphs:
    """A dataset's points formatted once for one canvas geometry.

    ``cross`` holds each point's cross as a path piece and ``circle`` its
    ``<circle cx cy r`` opening: common-class points draw as crosses, the rest
    as circles. ``boundary`` is the analytic boundary's path element (empty
    when the curve misses the grid). Figures join the pieces by mask.
    """

    geometry: dict  # SvgCanvas keyword arguments
    cross: np.ndarray
    circle: np.ndarray
    common: np.ndarray
    boundary: list[str]

    def canvas(self, title: str) -> SvgCanvas:
        canvas = SvgCanvas(**self.geometry)
        canvas.frame(title)
        return canvas

    def draw(self, canvas: SvgCanvas, groups) -> None:
        """For each (mask, color): the masked common points' crosses as one
        path, then the masked other points' circles."""
        for mask, color in groups:
            crosses = self.cross[mask & self.common]
            if crosses.size:
                canvas.elements.append(
                    f'<path d="{"".join(crosses)}" stroke="{color}" stroke-width="1" fill="none"/>'
                )
            canvas.elements.extend(
                f'{opening} stroke="{color}" fill="none" stroke-width="1"/>'
                for opening in self.circle[mask & ~self.common]
            )


def point_glyphs(dataset: Dataset2D, arm: float = 2.5, **geometry) -> PointGlyphs:
    """The glyphs of every point on ``SvgCanvas(**geometry)``: crosses with arm
    ``arm`` and circles of that radius, from one formatting pass over the six
    pixel columns of a cross (its centre's x and y among them), GLYPH_CHUNK
    points at a time."""
    canvas = SvgCanvas(**geometry)
    lo, hi = canvas.bounds
    scale = canvas.size / (hi - lo)
    x = (canvas.origin[0] + canvas.margin) + (dataset.points[:, 0] - lo) * scale
    y = (canvas.origin[1] + canvas.margin) + (hi - dataset.points[:, 1]) * scale
    columns = np.stack([x - arm, y, x + arm, x, y - arm, y + arm])
    cross, circle = [], []
    for start in range(0, columns.shape[1], GLYPH_CHUNK):
        block = columns[:, start : start + GLYPH_CHUNK]
        left, mid, right, centre, top, bottom = map(_fmt_column, block)
        cross += [
            f"M{l} {m}L{r} {m}M{c} {t}L{c} {b}"
            for l, m, r, c, t, b in zip(left, mid, right, centre, top, bottom)
        ]
        circle += [f'<circle cx="{c}" cy="{m}" r="{arm}"' for c, m in zip(centre, mid)]
    canvas.segments(analytic_boundary_contour(*dataset.specs[:2]), BOUNDARY_COLOR, dashed=True)
    return PointGlyphs(
        geometry,
        np.array(cross, dtype=object),
        np.array(circle, dtype=object),
        dataset.labels == dataset.specs[0].label,
        canvas.elements,
    )


def _first_appearance(codes: np.ndarray, colors, keep: np.ndarray | None = None) -> list:
    """One (mask, color) per code among the kept points, in order of first
    appearance; ``colors`` is indexed by code."""
    if keep is None:
        keep = np.ones(codes.shape, dtype=bool)
    return [(keep & (codes == code), colors[code]) for code in dict.fromkeys(codes[keep].tolist())]


def _data_canvas(glyphs: PointGlyphs, title: str, model: MlpModel | None = None) -> SvgCanvas:
    """Green crosses (common), purple circles (uncommon), the dotted
    equal-density boundary, and the model's decision boundary if given."""
    canvas = glyphs.canvas(title)
    glyphs.draw(canvas, [(glyphs.common, COMMON_COLOR), (~glyphs.common, UNCOMMON_COLOR)])
    canvas.elements += glyphs.boundary
    if model is not None:
        canvas.segments(model_boundary_contour(model), MODEL_COLOR, width=2.0)
    return canvas


def scatter_figure(glyphs: PointGlyphs, path: str | Path, title: str = "data") -> None:
    """Raw cloud with the equal-density boundary."""
    render_svg([_data_canvas(glyphs, title)], path)


def prediction_figure(
    model: MlpModel, glyphs: PointGlyphs, path: str | Path, title: str = "predictions"
) -> None:
    """Data plus the model's decision boundary, analytic curve dotted behind."""
    render_svg([_data_canvas(glyphs, title, model)], path)


def tail_figure(
    glyphs: PointGlyphs,
    tail_codes: np.ndarray,
    path: str | Path,
    rare_only: bool = False,
    title: str = "",
) -> None:
    """Per-example tail codes: common green, rare yellow, hard red;
    unvisited grey. ``rare_only`` reproduces the rare-set-with-boundary view."""
    canvas = glyphs.canvas(title or ("rare set" if rare_only else "tail classes"))
    keep = tail_codes == RARE if rare_only else None
    glyphs.draw(canvas, _first_appearance(tail_codes, TAIL_COLORS, keep))
    canvas.elements += glyphs.boundary
    render_svg([canvas], path)


def entropy_figure(
    glyphs: PointGlyphs, mean_entropy: np.ndarray, path: str | Path, title: str = "entropy"
) -> None:
    """Median split of run-mean prediction entropy: high red, low green."""
    canvas = glyphs.canvas(title)
    visited = np.isfinite(mean_entropy)
    codes = np.full(mean_entropy.shape, UNVISITED)
    if np.any(visited):
        codes[visited] = mean_entropy[visited] > np.median(mean_entropy[visited])
    glyphs.draw(canvas, _first_appearance(codes, ENTROPY_COLORS))
    render_svg([canvas], path)


def panel_figure(
    panels: list[tuple[str, MlpModel | None, Dataset2D]], path: str | Path
) -> None:
    """Side-by-side decision-boundary panels (one column per swept value)."""
    if not panels:
        raise ValueError("panel_figure needs at least one panel")
    size, margin = 300, 36
    canvases = []
    for k, (title, model, dataset) in enumerate(panels):
        origin = (k * (size + 2 * margin), 0)
        glyphs = point_glyphs(dataset, arm=1.8, size=size, margin=margin, origin=origin)
        canvases.append(_data_canvas(glyphs, title, model))
    render_svg(canvases, path)
