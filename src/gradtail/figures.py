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

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import EVAL_BOUNDS, RARE, UNVISITED, BoundaryGrid
from .datasets import Dataset2D
from .mlp import forward_batch  # noqa: F401  (perfbench/tracing.py rebinds it here)

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


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Byte rows of ``_number_bytes``'s pieces: the low three integer digits
    of 0-999 NUL-led (rows 0-999) and of 1000 or more zero-padded (row
    1000 + n % 1000), and the ``""``, ``.d`` or ``.dd`` tail of 0-99 cents."""
    low = [f"{n:3d}".replace(" ", "\0") for n in range(1000)] + [f"{n:03d}" for n in range(1000)]
    tails = [f".{c:02d}".rstrip("0").rstrip(".") for c in range(100)]
    tables = tuple(np.array(t, "S3").view(np.uint8).reshape(-1, 3) for t in (low, tails))
    for table in tables:
        table.setflags(write=False)  # the cache hands the same arrays to every caller
    return tables


def _number_bytes(values: np.ndarray) -> np.ndarray:
    """``_fmt`` of each value as one NUL-padded uint8 row, built from integer
    cents ``rint(|v| * 100)``: sign, integer digits, then ``.d`` or ``.dd``,
    the low three digits and the tail gathered from ``_digit_tables``.
    Rounding is monotonic, so the product lands on a half-cent's correct
    side or on it; values within 1e-6 of a half-cent, non-finite or >= 1e9 go
    through ``_fmt`` itself, whose .2f decides exact binary ties (16.005)."""
    v = np.asarray(values, dtype=np.float64)
    big = ~(np.abs(v) < 1e9)  # NaN and +-inf too
    cents = np.where(big, 0.0, np.abs(v)) * 100.0
    odd = big | (np.abs(cents - np.floor(cents) - 0.5) < 1e-6)
    n = np.rint(cents).astype(np.int64)
    whole = n // 100  # n >= 0: divmod's values, without its slower loop
    frac = n - whole * 100
    ndig = len(str(whole.max(initial=0)))
    low, tails = _digit_tables()
    out = np.zeros((v.size, ndig + 4), np.uint8)
    out[np.signbit(v), 0] = ord("-")
    k = min(ndig, 3)  # the ones digit in column ndig; leading zeros stay NUL
    rows = np.where(whole < 1000, whole, whole % 1000 + 1000) if ndig > 3 else whole
    out[:, ndig + 1 - k : ndig + 1] = np.take(low[:, 3 - k :], rows, axis=0)
    for p in range(3, ndig):
        out[:, ndig - p] = whole // 10**p % 10 + 48
        out[whole < 10**p, ndig - p] = 0
    out[:, ndig + 1 :] = np.take(tails, frac, axis=0)
    if odd.any():
        text = np.array([_fmt(x) for x in v[odd].tolist()], dtype=bytes)
        out = np.pad(out, ((0, 0), (0, max(0, text.itemsize - out.shape[1]))))
        out[odd] = 0
        out[odd, : text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)
    return out


def _rows(*parts) -> list[str]:
    """One str per row from ``bytes`` literals and ``_number_bytes`` arrays."""
    n = next(len(part) for part in parts if isinstance(part, np.ndarray))
    cols = [
        np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p))) if isinstance(p, bytes) else p
        for p in parts + (b"\n",)
    ]
    return np.concatenate(cols, axis=1).tobytes().translate(None, b"\0").decode().split("\n")[:-1]


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

    def frame(self, title: str = "") -> None:
        lo, hi = self.bounds
        x0, y0 = self.px(lo, hi)
        self.elements.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{self.size}"'
            f' height="{self.size}" fill="none" stroke="#000" stroke-width="1"/>'
        )
        corner_lo = self.px(lo, lo)
        corner_hi = self.px(hi, hi)
        self.text(corner_lo[0], corner_lo[1] + 14, f"({_fmt(lo)}, {_fmt(lo)})")
        self.text(corner_hi[0], corner_hi[1] - 5, f"({_fmt(hi)}, {_fmt(hi)})", anchor="end")
        if title:
            self.text(x0 + self.size / 2, y0 - 8, title, anchor="middle", bold=True)

    def text(self, px: float, py: float, s: str, anchor: str = "start", bold: bool = False) -> None:
        weight = ' font-weight="bold"' if bold else ""
        self.elements.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-family="sans-serif"'
            f' font-size="11" text-anchor="{anchor}"{weight}>{s}</text>'
        )

    def segments(
        self, segs: np.ndarray, color: str, dashed: bool = False, width: float = 1.5
    ) -> None:
        """World-coordinate line segments, an (S, 2, 2) array of end points,
        batched into one path."""
        if not len(segs):
            return
        (x1, y1), (x2, y2) = segs.transpose(1, 2, 0)
        (x1, y1), (x2, y2) = self.px(x1, y1), self.px(x2, y2)
        ends = _number_bytes(np.concatenate([x1, y1, x2, y2])).reshape(4, len(segs), -1)
        d = "".join(_rows(b"M", ends[0], b" ", ends[1], b"L", ends[2], b" ", ends[3]))
        dash = ' stroke-dasharray="5 4"' if dashed else ""
        self.elements.append(
            f'<path d="{d}" stroke="{color}" stroke-width="{width}"'
            f' fill="none"{dash}/>'
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
) -> np.ndarray:
    """Zero-level segments of ``field[i, j] = f(xs[j], ys[i])``.

    Marching squares with linear edge interpolation; saddle cells are split
    using the cell-center value. Returns an (S, 2, 2) array of world-coordinate
    segments: ``segs[s] = ((ax, ay), (bx, by))``.
    """
    f = np.asarray(field, dtype=np.float64) - level
    if f.shape != (len(ys), len(xs)):
        raise ValueError(f"field shape {f.shape} != (len(ys), len(xs))")
    pos = f > 0.0
    # cells whose four corners are not all on one side
    corner_any = pos[:-1, :-1] | pos[:-1, 1:] | pos[1:, 1:] | pos[1:, :-1]
    corner_all = pos[:-1, :-1] & pos[:-1, 1:] & pos[1:, 1:] & pos[1:, :-1]
    mixed = corner_any & ~corner_all
    i, j = np.nonzero(mixed)
    # corner k counterclockwise from bottom-left in world terms; edge k runs
    # from corner k to corner k + 1
    cx = np.stack([xs[j], xs[j + 1], xs[j + 1], xs[j]])
    cy = np.stack([ys[i], ys[i], ys[i + 1], ys[i + 1]])
    v = np.stack([f[i, j], f[i, j + 1], f[i + 1, j + 1], f[i + 1, j]])
    nx, ny, nv = (np.roll(a, -1, axis=0) for a in (cx, cy, v))
    crosses = (v > 0.0) != (nv > 0.0)
    t = np.divide(v, v - nv, out=np.zeros_like(v), where=crosses)
    px, py = cx + t * (nx - cx), cy + t * (ny - cy)
    # two crossings join first to last edge; a saddle (four) pairs its edges
    # so the contour separates the cell centre correctly
    saddle = crosses.all(axis=0)
    split = (0.25 * (((v[0] + v[1]) + v[2]) + v[3]) > 0.0) == (v[0] > 0.0)
    first, last = crosses.argmax(axis=0), 3 - crosses[::-1].argmax(axis=0)
    second = np.where(saddle & ~split, 1, last)
    ends = np.stack([first, second, 2 - split, 3 - split], axis=1).reshape(-1, 2, 2)
    ends = ends[np.stack([np.ones_like(saddle), saddle], axis=1)]  # drop non-saddles' second
    cell = np.repeat(np.arange(len(saddle)), 1 + saddle)[:, None]
    return np.stack([px[ends, cell], py[ends, cell]], axis=-1)


def analytic_boundary_contour(grid: BoundaryGrid) -> np.ndarray:
    """Equal-density curve of the two generators (log densities: same zeros,
    no far-field underflow)."""
    return contour_segments(grid.axis, grid.axis, grid.log_gap.reshape(grid.axis.size, -1))


def model_boundary_contour(grid: BoundaryGrid) -> np.ndarray:
    """Two-class decision boundary: zero crossing of logit(common) - logit(rare)."""
    if grid.logits.shape[1] != 2:
        raise ValueError("decision contour needs a two-logit classifier")
    diff = grid.logits[:, 0] - grid.logits[:, 1]
    return contour_segments(grid.axis, grid.axis, diff.reshape(grid.axis.size, -1))


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointGlyphs:
    """A dataset's points formatted once for one canvas geometry.

    ``piece`` holds each point's glyph as a path piece: an absolute move to
    ``(x - arm, y)``, then a fixed relative stroke, a cross for common-class
    points and a two-arc circle for the rest. ``boundary`` is the analytic
    boundary's path element (empty when the curve misses the grid). Figures
    join the pieces by mask.
    """

    geometry: dict  # SvgCanvas keyword arguments
    piece: np.ndarray
    common: np.ndarray
    boundary: list[str]

    def canvas(self, title: str) -> SvgCanvas:
        canvas = SvgCanvas(**self.geometry)
        canvas.frame(title)
        return canvas

    def draw(self, canvas: SvgCanvas, groups) -> None:
        """For each (mask, color): the masked points' glyphs as one path."""
        for mask, color in groups:
            pieces = self.piece[mask]
            if pieces.size:
                canvas.elements.append(
                    f'<path d="{"".join(pieces)}" stroke="{color}" stroke-width="1" fill="none"/>'
                )


def point_glyphs(
    dataset: Dataset2D, grid: BoundaryGrid, arm: float = 2.5, **geometry
) -> PointGlyphs:
    """The glyphs of every point on ``SvgCanvas(**geometry)`` and the analytic
    boundary of ``grid``: crosses with arm ``arm`` for common points and
    circles of that radius for the rest, each formatted as its one start
    ``(x - arm, y)`` and a stroke relative to it, so every glyph's ends lie
    an exact offset from its ``_fmt``-rounded start."""
    canvas = SvgCanvas(**geometry)
    x, y = canvas.px(dataset.points[:, 0], dataset.points[:, 1])
    common = dataset.labels == dataset.specs[0].label
    a, d = _fmt(arm), _fmt(2 * arm)
    strokes = (f"h{d}m-{a}-{a}v{d}", f"a{a} {a} 0 1 0 {d} 0a{a} {a} 0 1 0-{d} 0")
    start = _number_bytes(np.concatenate([x - arm, y]))
    left, mid = start.reshape(2, len(x), start.shape[1])
    piece = np.empty(len(x), dtype=object)
    for mask, stroke in zip((common, ~common), strokes):
        piece[mask] = _rows(b"M", left[mask], b" ", mid[mask], stroke.encode())
    canvas.segments(analytic_boundary_contour(grid), BOUNDARY_COLOR, dashed=True)
    return PointGlyphs(geometry, piece, common, canvas.elements)


def _first_appearance(codes: np.ndarray, colors, keep: np.ndarray | None = None) -> list:
    """One (mask, color) per code among the kept points, in order of first
    appearance; ``colors`` is indexed by code."""
    if keep is None:
        keep = np.ones(codes.shape, dtype=bool)
    return [(keep & (codes == code), colors[code]) for code in dict.fromkeys(codes[keep].tolist())]


def _data_canvas(glyphs: PointGlyphs, title: str, grid: BoundaryGrid | None = None) -> SvgCanvas:
    """Green crosses (common), purple circles (uncommon), the dotted
    equal-density boundary, and the decision boundary of the grid's model if given."""
    canvas = glyphs.canvas(title)
    glyphs.draw(canvas, [(glyphs.common, COMMON_COLOR), (~glyphs.common, UNCOMMON_COLOR)])
    canvas.elements += glyphs.boundary
    if grid is not None:
        canvas.segments(model_boundary_contour(grid), MODEL_COLOR, width=2.0)
    return canvas


def scatter_figure(glyphs: PointGlyphs, path: str | Path, title: str = "data") -> None:
    """Raw cloud with the equal-density boundary."""
    render_svg([_data_canvas(glyphs, title)], path)


def prediction_figure(
    grid: BoundaryGrid, glyphs: PointGlyphs, path: str | Path, title: str = "predictions"
) -> None:
    """Data plus the decision boundary of the grid's model, analytic curve dotted behind."""
    render_svg([_data_canvas(glyphs, title, grid)], path)


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


def panel_figure(panels: list[tuple[str, BoundaryGrid, Dataset2D]], path: str | Path) -> None:
    """Side-by-side decision-boundary panels: one (title, grid, dataset) per column."""
    if not panels:
        raise ValueError("panel_figure needs at least one panel")
    size, margin = 300, 36
    canvases = []
    for k, (title, grid, dataset) in enumerate(panels):
        origin = (k * (size + 2 * margin), 0)
        glyphs = point_glyphs(dataset, grid, arm=1.8, size=size, margin=margin, origin=origin)
        canvases.append(_data_canvas(glyphs, title, grid))
    render_svg(canvases, path)
