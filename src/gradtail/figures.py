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

from pathlib import Path

import numpy as np

from .analysis import EVAL_BOUNDS, TailLabel
from .datasets import Dataset2D, GaussianSpec, log_density
from .mlp import MlpModel, forward_batch

COMMON_COLOR = "#2ca02c"   # green crosses
UNCOMMON_COLOR = "#9467bd"  # purple circles
BOUNDARY_COLOR = "#333333"
MODEL_COLOR = "#1f77b4"
TAIL_COLORS = {TailLabel.COMMON: "#2ca02c", TailLabel.RARE: "#e6b800", TailLabel.HARD: "#d62728"}
UNVISITED_COLOR = "#bbbbbb"
HIGH_COLOR = "#d62728"
LOW_COLOR = "#2ca02c"


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

    def _columns(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pixel x and y columns of world points, in the same operations as px."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        lo, hi = self.bounds
        scale = self.size / (hi - lo)
        return (
            (self.origin[0] + self.margin) + (pts[:, 0] - lo) * scale,
            (self.origin[1] + self.margin) + (hi - pts[:, 1]) * scale,
        )

    @staticmethod
    def _fmt_column(values: np.ndarray) -> list[str]:
        return [f"{v:.2f}".rstrip("0").rstrip(".") for v in values.tolist()]

    def crosses(self, points: np.ndarray, color: str, arm: float = 2.5) -> None:
        """All crosses of one color batched into a single path element."""
        if len(points) == 0:
            return
        x, y = self._columns(points)
        cols = [self._fmt_column(c) for c in (x - arm, y, x + arm, x, y - arm, y + arm)]
        path = "".join(
            f"M{left} {mid}L{right} {mid}M{centre} {top}L{centre} {bottom}"
            for left, mid, right, centre, top, bottom in zip(*cols)
        )
        self.elements.append(f'<path d="{path}" stroke="{color}" stroke-width="1" fill="none"/>')

    def circles(self, points: np.ndarray, color: str, radius: float = 2.5) -> None:
        x, y = self._columns(points)
        self.elements.extend(
            f'<circle cx="{cx}" cy="{cy}" r="{radius}"'
            f' stroke="{color}" fill="none" stroke-width="1"/>'
            for cx, cy in zip(self._fmt_column(x), self._fmt_column(y))
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


def _class_points(dataset: Dataset2D) -> tuple[np.ndarray, np.ndarray]:
    common_label = dataset.specs[0].label
    mask = dataset.labels == common_label
    return dataset.points[mask], dataset.points[~mask]


def _glyphs_by_color(
    canvas: SvgCanvas,
    points: np.ndarray,
    labels: np.ndarray,
    common_label: int,
    colors: np.ndarray,
) -> None:
    """Class keeps its glyph (cross = common, circle = uncommon); color varies."""
    is_common = labels == common_label
    for color in dict.fromkeys(colors.tolist()):
        chosen = colors == color
        canvas.crosses(points[chosen & is_common], color)
        canvas.circles(points[chosen & ~is_common], color)


def scatter_figure(dataset: Dataset2D, path: str | Path, title: str = "data") -> None:
    """Raw cloud: green crosses (common), purple circles (uncommon), dotted
    equal-density boundary."""
    canvas = SvgCanvas()
    canvas.frame(title)
    common_pts, uncommon_pts = _class_points(dataset)
    canvas.crosses(common_pts, COMMON_COLOR)
    canvas.circles(uncommon_pts, UNCOMMON_COLOR)
    canvas.segments(
        analytic_boundary_contour(dataset.specs[0], dataset.specs[1]),
        BOUNDARY_COLOR,
        dashed=True,
    )
    render_svg([canvas], path)


def prediction_figure(
    model: MlpModel, dataset: Dataset2D, path: str | Path, title: str = "predictions"
) -> None:
    """Data plus the model's decision boundary, analytic curve dotted behind."""
    canvas = SvgCanvas()
    canvas.frame(title)
    common_pts, uncommon_pts = _class_points(dataset)
    canvas.crosses(common_pts, COMMON_COLOR)
    canvas.circles(uncommon_pts, UNCOMMON_COLOR)
    canvas.segments(
        analytic_boundary_contour(dataset.specs[0], dataset.specs[1]),
        BOUNDARY_COLOR,
        dashed=True,
    )
    canvas.segments(model_boundary_contour(model), MODEL_COLOR, width=2.0)
    render_svg([canvas], path)


def tail_figure(
    dataset: Dataset2D,
    tail_labels: np.ndarray,
    path: str | Path,
    rare_only: bool = False,
    title: str = "",
) -> None:
    """Per-example tail classes: common green, rare yellow, hard red;
    unvisited grey. ``rare_only`` reproduces the rare-set-with-boundary view."""
    canvas = SvgCanvas()
    canvas.frame(title or ("rare set" if rare_only else "tail classes"))
    colors = np.array(
        [UNVISITED_COLOR if lab is None else TAIL_COLORS[lab] for lab in tail_labels]
    )
    common_label = dataset.specs[0].label
    if rare_only:
        keep = np.array([lab is TailLabel.RARE for lab in tail_labels], dtype=bool)
        _glyphs_by_color(
            canvas, dataset.points[keep], dataset.labels[keep], common_label, colors[keep]
        )
    else:
        _glyphs_by_color(canvas, dataset.points, dataset.labels, common_label, colors)
    canvas.segments(
        analytic_boundary_contour(dataset.specs[0], dataset.specs[1]),
        BOUNDARY_COLOR,
        dashed=True,
    )
    render_svg([canvas], path)


def entropy_figure(
    dataset: Dataset2D, mean_entropy: np.ndarray, path: str | Path, title: str = "entropy"
) -> None:
    """Median split of run-mean prediction entropy: high red, low green."""
    canvas = SvgCanvas()
    canvas.frame(title)
    visited = np.isfinite(mean_entropy)
    colors = np.full(len(mean_entropy), UNVISITED_COLOR, dtype=object)
    if np.any(visited):
        median = np.median(mean_entropy[visited])
        colors[visited] = np.where(mean_entropy[visited] > median, HIGH_COLOR, LOW_COLOR)
    _glyphs_by_color(
        canvas, dataset.points, dataset.labels, dataset.specs[0].label, colors.astype(str)
    )
    render_svg([canvas], path)


def panel_figure(
    panels: list[tuple[str, MlpModel | None, Dataset2D]], path: str | Path
) -> None:
    """Side-by-side decision-boundary panels (one column per swept value)."""
    if not panels:
        raise ValueError("panel_figure needs at least one panel")
    canvases = []
    panel_size, margin = 300, 36
    for k, (title, model, dataset) in enumerate(panels):
        canvas = SvgCanvas(size=panel_size, margin=margin, origin=(k * (panel_size + 2 * margin), 0))
        canvas.frame(title)
        common_pts, uncommon_pts = _class_points(dataset)
        canvas.crosses(common_pts, COMMON_COLOR, arm=1.8)
        canvas.circles(uncommon_pts, UNCOMMON_COLOR, radius=1.8)
        canvas.segments(
            analytic_boundary_contour(dataset.specs[0], dataset.specs[1]),
            BOUNDARY_COLOR,
            dashed=True,
        )
        if model is not None:
            canvas.segments(model_boundary_contour(model), MODEL_COLOR, width=2.0)
        canvases.append(canvas)
    render_svg(canvases, path)
