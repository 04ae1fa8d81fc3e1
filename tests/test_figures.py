"""SVG figure tests: coordinate mapping, contour extraction, and file shape.

All emitted files are parsed with the stdlib XML parser, so a malformed
element fails loudly rather than rendering wrong.
"""

import re
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from gradtail import figures
from gradtail.analysis import COMMON, EVAL_BOUNDS, HARD, RARE, UNVISITED, boundary_grid
from gradtail.datasets import (
    DEFAULT_COMMON,
    DEFAULT_UNCOMMON,
    Dataset2D,
    GaussianSpec,
    gen_hard_variant,
    gen_two_gaussians,
    log_density,
)
from gradtail.figures import (
    SvgCanvas,
    _number_bytes,
    _rows,
    analytic_boundary_contour,
    contour_segments,
    entropy_figure,
    model_boundary_contour,
    panel_figure,
    point_glyphs,
    prediction_figure,
    render_svg,
    scatter_figure,
    tail_figure,
)
from gradtail.mlp import MlpModel, forward_batch

SVG = "{http://www.w3.org/2000/svg}"


def small_dataset(seed=0):
    return gen_two_gaussians(
        seed,
        GaussianSpec((0.0, 0.0), 1.0, 30, 0),
        GaussianSpec((2.2, 2.2), 0.5, 10, 1),
    )


def parse(path):
    return ET.fromstring(path.read_text())


def count_tags(root, tag):
    return len(root.findall(f".//{SVG}{tag}"))


# the model of a grid whose decision boundary a figure does not draw
ANY_MODEL = MlpModel.initialize((2, 5, 2), seed=0)


def grid_for(ds, model=ANY_MODEL):
    return boundary_grid(model, *ds.specs[:2])


def glyphs_for(ds, **kwargs):
    return point_glyphs(ds, grid_for(ds), **kwargs)


def standalone_contour(field_of_points):
    """Reference: the zero contour of ``field_of_points(nodes)`` on a 200x200
    EVAL_BOUNDS grid that it builds and evaluates on its own."""
    xs = ys = np.linspace(*EVAL_BOUNDS, 200)
    gx, gy = np.meshgrid(xs, ys)
    field = field_of_points(np.stack([gx.ravel(), gy.ravel()], axis=1))
    return contour_segments(xs, ys, field.reshape(200, 200))


def analytic_reference(common, uncommon):
    return standalone_contour(lambda pts: log_density(pts, common) - log_density(pts, uncommon))


def model_reference(model):
    def logit_gap(pts):
        logits = forward_batch(model, pts)
        return logits[:, 0] - logits[:, 1]

    return standalone_contour(logit_gap)


# ---------------------------------------------------------------------------
# coordinate mapping
# ---------------------------------------------------------------------------


def test_px_maps_world_corners():
    canvas = SvgCanvas(bounds=(-4.0, 5.0), size=450, margin=40)
    assert canvas.px(-4.0, 5.0) == (40.0, 40.0)        # top-left
    assert canvas.px(5.0, -4.0) == (490.0, 490.0)      # bottom-right
    assert canvas.px(0.5, 0.5) == (265.0, 265.0)       # center


def test_px_flips_y_axis():
    canvas = SvgCanvas(bounds=(0.0, 1.0), size=100, margin=0)
    _, py_low = canvas.px(0.5, 0.2)
    _, py_high = canvas.px(0.5, 0.8)
    assert py_high < py_low  # larger world y is closer to the top of the image


def test_canvas_rejects_degenerate_bounds():
    with pytest.raises(ValueError, match="increasing"):
        SvgCanvas(bounds=(2.0, 2.0))


def test_origin_offsets_panels():
    a = SvgCanvas(bounds=(0.0, 1.0), size=100, margin=10, origin=(0, 0))
    b = SvgCanvas(bounds=(0.0, 1.0), size=100, margin=10, origin=(200, 0))
    assert b.px(0.0, 1.0)[0] - a.px(0.0, 1.0)[0] == 200.0


# world points whose pixels round at .xx5 (15.125, 16.005, 10.124999...), land
# on -0.004 and -8.9e-15 (printed "-0"), or are negative
GLYPH_POINTS = np.array([
    [0.0, 1.0], [0.00125, 0.99875], [0.01005, 0.5], [-0.3, 1.2],
    [-0.15004, 1.1], [-0.1501, 0.33333], [0.123456, -0.25],
])
GLYPH_GEOMETRY = {"bounds": (0.0, 1.0), "size": 100, "margin": 10, "origin": (5, 0)}


def glyph_dataset(labels=np.arange(7) % 2):
    """GLYPH_POINTS with alternating classes by default: common (0) at even indices."""
    specs = (GaussianSpec((0.0, 0.0), 1.0, 4, 0), GaussianSpec((1.0, 1.0), 0.5, 3, 1))
    return Dataset2D(GLYPH_POINTS, labels, specs, 0)


def assert_drawn_glyphs(glyphs, crosses, circles):
    """Crosses of the common points and circles of the rest, as in the per-point
    references, one piece per point."""
    assert glyphs.piece.dtype == object
    assert glyphs.piece.tolist() == [
        cross if k else circle for cross, circle, k in zip(crosses, circles, glyphs.common)
    ]


def every_glyph(arm=2.5):
    """Each GLYPH_POINTS point's cross and circle, from the alternating labels and
    their swap (a point draws one glyph per labeling)."""
    a, b = (
        glyphs_for(glyph_dataset(labels), arm=arm, **GLYPH_GEOMETRY)
        for labels in (np.arange(7) % 2, 1 - np.arange(7) % 2)
    )
    crosses, circles = np.where(a.common, a.piece, b.piece), np.where(a.common, b.piece, a.piece)
    return crosses.tolist(), circles.tolist()


def fmt_reference(v):
    return f"{float(v):.2f}".rstrip("0").rstrip(".")


def start_reference(canvas, x, y, arm):
    """The move to a glyph's left end, each coordinate formatted on its own."""
    px, py = canvas.px(x, y)
    return f"M{fmt_reference(px - arm)} {fmt_reference(py)}"


def cross_reference(canvas, x, y, arm):
    a, d = fmt_reference(arm), fmt_reference(2 * arm)
    return f"{start_reference(canvas, x, y, arm)}h{d}m-{a}-{a}v{d}"


def circle_reference(canvas, x, y, arm):
    a, d = fmt_reference(arm), fmt_reference(2 * arm)
    return f"{start_reference(canvas, x, y, arm)}a{a} {a} 0 1 0 {d} 0a{a} {a} 0 1 0-{d} 0"


def glyph_path(pieces, color):
    return f'<path d="{"".join(pieces)}" stroke="{color}" stroke-width="1" fill="none"/>'


PATH_COMMAND = re.compile(r"([A-Za-z])([^A-Za-z]*)")
PATH_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)")


def glyph_shapes(d):
    """A glyph path's pieces walked back to absolute points, one per ``M``:
    ("cross", centre, [left, right, top, bottom] arm ends) for a move and its
    h/m/v strokes, ("circle", centre, radius) for a move and two arcs that
    close a circle. Any other piece fails."""
    shapes = []
    for piece in re.split(r"(?=M)", d)[1:]:
        commands = [
            (c, [float(v) for v in PATH_NUMBER.findall(args)])
            for c, args in PATH_COMMAND.findall(piece)
        ]
        kinds = "".join(c for c, _ in commands)
        x, y = commands[0][1]
        if kinds == "Mhmv":
            [dx], [mx, my], [dy] = (args for _, args in commands[1:])
            top = (x + dx + mx, y + my)
            ends = [(x, y), (x + dx, y), top, (top[0], top[1] + dy)]
            shapes.append(("cross", (top[0], y), ends))
        else:
            assert kinds == "Maa", piece
            (rx, ry, rot, large, sweep, ex, ey), second = (args for _, args in commands[1:])
            # equal radii, a diameter as the first chord, the second arc back to
            # the start on the other side (same sweep flag, reversed chord)
            assert rx == ry and rot == 0 and np.hypot(ex, ey) == 2 * rx, piece
            assert second == [rx, ry, rot, large, sweep, -ex, -ey], piece
            shapes.append(("circle", (x + ex / 2, y + ey / 2), rx))
    return shapes


def glyph_counts(root):
    """Glyph pieces by kind over a figure's glyph paths (the stroke-width 1 paths)."""
    return Counter(
        kind
        for path in root.findall(f".//{SVG}path") if path.get("stroke-width") == "1"
        for kind, _, _ in glyph_shapes(path.get("d"))
    )


def test_crosses_match_per_point_reference():
    for arm in (2.5, 1.8):
        glyphs = glyphs_for(glyph_dataset(), arm=arm, **GLYPH_GEOMETRY)
        canvas = SvgCanvas(**GLYPH_GEOMETRY)
        want = [cross_reference(canvas, x, y, arm) for x, y in GLYPH_POINTS]
        assert glyphs.piece[glyphs.common].tolist() == want[::2]
        assert every_glyph(arm)[0] == want
        glyphs.draw(canvas, [(glyphs.common, "#123456")])
        assert canvas.elements == [glyph_path(want[::2], "#123456")]
    assert "".join(every_glyph()[0][1:5]) == (
        "M12.62 10.12h5m-2.5-2.5v5M13.5 60h5m-2.5-2.5v5"
        "M-17.5 -10h5m-2.5-2.5v5M-2.5 -0h5m-2.5-2.5v5"
    )


def test_circles_match_per_point_reference():
    glyphs = glyphs_for(glyph_dataset(), arm=1.8, **GLYPH_GEOMETRY)
    canvas = SvgCanvas(**GLYPH_GEOMETRY)
    want = [circle_reference(canvas, x, y, 1.8) for x, y in GLYPH_POINTS]
    assert glyphs.piece[~glyphs.common].tolist() == want[1::2]
    assert every_glyph(1.8)[1] == want
    glyphs.draw(canvas, [(~glyphs.common, "#654321")])
    assert canvas.elements == [glyph_path(want[1::2], "#654321")]
    starts = [tuple(piece[1:piece.index("a")].split()) for piece in want]
    assert starts == [
        ("13.2", "10"), ("13.32", "10.12"), ("14.2", "60"), ("-16.8", "-10"), ("-1.8", "-0"),
        ("-1.81", "76.67"), ("25.55", "135"),
    ]
    arcs = {piece[piece.index("a"):] for piece in want}
    assert arcs == {"a1.8 1.8 0 1 0 3.6 0a1.8 1.8 0 1 0-3.6 0"}


def test_glyphs_accept_empty_input():
    glyphs = glyphs_for(glyph_dataset(), **GLYPH_GEOMETRY)
    canvas = SvgCanvas(**GLYPH_GEOMETRY)
    glyphs.draw(canvas, [(np.zeros(7, dtype=bool), "#123456")])
    glyphs.draw(canvas, [])
    assert canvas.elements == []
    # one path: crosses for the common class, circles for the rest
    glyphs.draw(canvas, [(np.ones(7, dtype=bool), "#123456")])
    assert len(canvas.elements) == 1
    assert [kind for kind, _, _ in glyph_shapes(canvas.elements[0].split('"')[1])] == [
        "cross", "circle"
    ] * 3 + ["cross"]


def format_rows(values):
    return _rows(_number_bytes(np.asarray(values, dtype=np.float64)))


def assert_formats_like_reference(values):
    values = np.asarray(values, dtype=np.float64)
    assert format_rows(values) == [fmt_reference(v) for v in values.tolist()]


def test_formatter_matches_reference_on_ties():
    # exact binary ties (.2f rounds them by their exact value) and near misses
    ties = np.array([0.125, 0.375, 0.625, 16.005, 15.125, 10.124999999999998, 2.675, 1.005])
    near = (np.arange(-3000, 3000) + 0.5) / 100
    offsets = np.array([0.0, 1e-7, -1e-7, 3e-8, -3e-8, 1e-9, -1e-9, 1e-12, -1e-12]) / 100
    assert_formats_like_reference(np.concatenate([ties, -ties, (near[:, None] + offsets).ravel()]))
    for tie in ties:
        assert_formats_like_reference([np.nextafter(tie, 0.0), tie, np.nextafter(tie, 1e3)])


def test_formatter_matches_reference_on_edge_values():
    assert_formats_like_reference(
        [0.0, -0.0, -0.004, 0.004, -0.005, -1e-300, 1e-300, 9.995, -9.995, 99.995, 999.995,
         0.1, 0.01, 0.09, 0.99, 1.0, 10.0, 100.0, 1000.1, -600.0, 5e-3, 0.015, 0.025]
    )
    assert_formats_like_reference(
        [1e5, 123456.78, -654321.125, 99999.995, 1e8 + 0.25, 999999999.99, 1e9, -1e9, 1.5e9,
         1e15 + 0.5, 1e20, -3.2e300]
    )
    assert_formats_like_reference([np.nan, np.inf, -np.inf, 1.0, -np.nan])
    assert format_rows([]) == []
    assert format_rows(np.array([2.5, 3.0])) == ["2.5", "3"]


def test_formatter_matches_reference_on_random_values():
    rng = np.random.default_rng(11)
    assert_formats_like_reference(rng.uniform(-600.0, 60_000.0, 200_000))
    assert_formats_like_reference(np.arange(-4800, 480_000, 7) / 8)
    assert_formats_like_reference(rng.integers(-10**6, 10**6, 20_000) / 1000)


def test_digit_tables_stay_small_for_nine_digit_values():
    # a table indexed by the whole part would need 10**9 rows here
    assert_formats_like_reference([999999999.99, -654321.125, 1e8 + 0.25])
    assert figures._digit_tables.cache_info().currsize == 1
    assert all(len(table) <= 2000 for table in figures._digit_tables())


def test_rows_join_literals_and_columns():
    a, b = _number_bytes(np.array([1.5, -0.25])), _number_bytes(np.array([1000.0, 0.999]))
    assert _rows(b"<", a, b" ", b, b'"/>') == ['<1.5 1000"/>', '<-0.25 1"/>']


PANEL_GEOMETRY = {"arm": 1.8, "size": 300, "margin": 36, "origin": (372, 0)}


@pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
@pytest.mark.parametrize("geometry", [{}, PANEL_GEOMETRY], ids=["default", "panel"])
def test_full_size_glyphs_match_per_point_reference(gen, geometry):
    geometry = dict(geometry)
    arm = geometry.pop("arm", 2.5)
    ds = gen(0)
    glyphs = glyphs_for(ds, arm=arm, **geometry)
    canvas = SvgCanvas(**geometry)
    crosses, circles = [], []
    for x, y in ds.points.tolist():
        crosses.append(cross_reference(canvas, x, y, arm))
        circles.append(circle_reference(canvas, x, y, arm))
    assert len(crosses) == len(glyphs.piece) == 10_400
    assert_drawn_glyphs(glyphs, crosses, circles)


def test_default_glyphs_rarely_use_scalar_fallback(monkeypatch):
    """The vector formatter sends only half-cent ties and huge or non-finite
    values to ``_fmt``; a widened tie window would send everything there."""
    calls = []
    scalar = figures._fmt
    monkeypatch.setattr(figures, "_fmt", lambda v: calls.append(v) or scalar(v))
    for gen in (gen_two_gaussians, gen_hard_variant):
        calls.clear()
        glyphs = glyphs_for(gen(0))
        drawn = glyphs.piece.tolist()
        assert len(drawn) == 10_400 and None not in drawn
        assert len(calls) < 10
    assert format_rows([0.125, 1.0]) == ["0.12", "1"] and calls[-1] == 0.125


@pytest.mark.parametrize("arm", [2.5, 1.8])
@pytest.mark.parametrize("data", ["glyph", "standard", "hard"])
def test_glyph_paths_draw_each_point_at_its_pixel(tmp_path, data, arm):
    """Geometry oracle, independent of the glyph text: a scatter figure's class
    paths walk back to one cross per common point and one circle per other
    point, in point order, each centred within 0.01 px of the point's pixel,
    with its arm ends within 0.01 px of their places or its radius the arm."""
    if data == "glyph":
        ds, geometry = glyph_dataset(), GLYPH_GEOMETRY
    else:
        ds = {"standard": gen_two_gaussians, "hard": gen_hard_variant}[data](0)
        geometry = {} if arm == 2.5 else {k: v for k, v in PANEL_GEOMETRY.items() if k != "arm"}
    path = tmp_path / "data.svg"
    scatter_figure(glyphs_for(ds, arm=arm, **geometry), path)
    d_by_color = {p.get("stroke"): p.get("d") for p in parse(path).findall(f".//{SVG}path")}
    canvas = SvgCanvas(**geometry)
    common = ds.labels == ds.specs[0].label
    for mask, color, kind in ((common, "#2ca02c", "cross"), (~common, "#9467bd", "circle")):
        kinds, centres, sizes = zip(*glyph_shapes(d_by_color[color]))
        assert kinds == (kind,) * mask.sum()
        px, py = canvas.px(ds.points[mask, 0], ds.points[mask, 1])
        assert np.abs(np.array(centres) - np.column_stack([px, py])).max() <= 0.01
        if kind == "cross":
            want = np.stack([[px - arm, py], [px + arm, py], [px, py - arm], [px, py + arm]])
            assert np.abs(np.array(sizes) - want.transpose(2, 0, 1)).max() <= 0.01
        else:
            assert set(sizes) == {arm}


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------


def test_contour_of_vertical_line():
    xs = np.linspace(-2.0, 2.0, 41)
    ys = np.linspace(-2.0, 2.0, 41)
    field = np.tile(xs - 0.3, (41, 1))  # f(x, y) = x - 0.3
    segs = contour_segments(xs, ys, field)
    assert segs.shape[1:] == (2, 2) and len(segs)
    for (x1, y1), (x2, y2) in segs:
        assert abs(x1 - 0.3) < 1e-9 and abs(x2 - 0.3) < 1e-9
    covered = sorted({y for seg in segs for _, y in seg})
    assert covered[0] == -2.0 and covered[-1] == 2.0


def test_contour_of_circle_lies_on_circle():
    xs = np.linspace(-2.0, 2.0, 201)
    ys = np.linspace(-2.0, 2.0, 201)
    gx, gy = np.meshgrid(xs, ys)
    field = gx**2 + gy**2 - 1.0
    pts = contour_segments(xs, ys, field).reshape(-1, 2)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    # linear interpolation error is O(h^2) with h = 0.02
    assert np.max(np.abs(radii - 1.0)) < 1e-3
    # the curve goes all the way round
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    assert angles.min() < -3.0 and angles.max() > 3.0


def test_contour_interpolates_level():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    field = np.array([[0.0, 4.0], [0.0, 4.0]]) - 1.0  # crossing at x = 0.25
    segs = contour_segments(xs, ys, field)
    assert len(segs) == 1
    (x1, _), (x2, _) = segs[0]
    assert x1 == pytest.approx(0.25) and x2 == pytest.approx(0.25)


def test_contour_saddle_emits_two_segments():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    field = np.array([[1.0, -1.0], [-1.0, 1.0]])
    segs = contour_segments(xs, ys, field)
    assert len(segs) == 2


def test_contour_shape_mismatch():
    with pytest.raises(ValueError, match="field shape"):
        contour_segments(np.arange(3.0), np.arange(4.0), np.zeros((3, 4)))


def contour_reference(xs, ys, field, level=0.0):
    """Per-cell marching squares, the loop ``contour_segments`` replaced."""
    f = np.asarray(field, dtype=np.float64) - level
    pos = f > 0.0
    corner_any = pos[:-1, :-1] | pos[:-1, 1:] | pos[1:, 1:] | pos[1:, :-1]
    corner_all = pos[:-1, :-1] & pos[:-1, 1:] & pos[1:, 1:] & pos[1:, :-1]
    segs = []
    for i, j in zip(*np.nonzero(corner_any & ~corner_all)):
        x0, x1, y0, y1 = xs[j], xs[j + 1], ys[i], ys[i + 1]
        corners = [
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
            center = 0.25 * sum(v for _, v in corners)
            c = sorted(crossings, key=lambda t: t[2])
            if (center > 0.0) == (corners[0][1] > 0.0):
                pairs = [(c[0], c[3]), (c[1], c[2])]
            else:
                pairs = [(c[0], c[1]), (c[2], c[3])]
            for (ax, ay, _), (bx, by, _) in pairs:
                segs.append(((ax, ay), (bx, by)))
    return segs


def assert_same_segments(xs, ys, field, level=0.0):
    got, want = contour_segments(xs, ys, field, level), contour_reference(xs, ys, field, level)
    assert got.shape == (len(want), 2, 2) and got.dtype == np.float64
    bits = lambda segs: np.array(segs, dtype=np.float64).reshape(-1, 2, 2).view(np.uint64)
    np.testing.assert_array_equal(bits(got), bits(want))
    return got


def test_contour_matches_per_cell_reference_on_random_fields():
    rng = np.random.default_rng(12)
    saddles = 0
    for trial in range(240):
        rows, cols = (2, 2) if trial % 4 == 0 else rng.integers(2, 12, size=2)
        xs = np.sort(rng.uniform(-3.0, 3.0, cols))
        ys = np.sort(rng.uniform(-3.0, 3.0, rows))
        field = rng.normal(size=(rows, cols))
        if trial % 3 == 1:  # corners exactly zero, either sign
            field[rng.random((rows, cols)) < 0.3] = rng.choice([0.0, -0.0])
        elif trial % 5 == 2:  # one sign throughout: no segments
            field = np.abs(field) * rng.choice([-1.0, 1.0])
        elif trial % 7 == 3:  # checkerboard: every cell a saddle
            parity = np.add.outer(np.arange(rows), np.arange(cols)) % 2
            field = np.abs(field) * np.where(parity, -1.0, 1.0)
        segs = assert_same_segments(xs, ys, field, level=0.1 if trial % 11 == 5 else 0.0)
        saddles += len(segs) > (rows - 1) * (cols - 1)
    assert saddles > 5
    xs = ys = np.array([0.0, 1.0])
    for field in (
        [[1.0, -1.0], [-1.0, 1.0]],  # saddle, centre exactly 0
        [[-1.0, 1.0], [1.0, -1.0]],
        [[1.0, -3.0], [-3.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
    ):
        assert_same_segments(xs, ys, np.array(field))


@pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
def test_contour_matches_per_cell_reference_on_default_boundaries(gen):
    common, uncommon = gen(0).specs[:2]
    xs = ys = np.linspace(*EVAL_BOUNDS, 200)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    field = (log_density(pts, common) - log_density(pts, uncommon)).reshape(200, 200)
    segs = assert_same_segments(xs, ys, field)
    assert len(segs) > 100
    np.testing.assert_array_equal(
        segs, analytic_boundary_contour(boundary_grid(ANY_MODEL, common, uncommon))
    )


@pytest.mark.parametrize("gen", [gen_two_gaussians, gen_hard_variant])
def test_shared_grid_contours_match_standalone(gen):
    """Both contours read off one shared grid equal, bit for bit, the ones
    that build their own grid, forward the model and evaluate the densities."""
    common, uncommon = gen(0).specs[:2]
    for seed in range(3):
        model = MlpModel.initialize((2, 5, 2), seed)
        grid = boundary_grid(model, common, uncommon)
        want = model_reference(model)
        assert len(want) > 0
        np.testing.assert_array_equal(model_boundary_contour(grid), want)
        np.testing.assert_array_equal(
            analytic_boundary_contour(grid), analytic_reference(common, uncommon)
        )


def test_analytic_contour_matches_closed_form_circle():
    common = GaussianSpec((0.0, 0.0), 1.0, 10, 0)
    uncommon = GaussianSpec((2.2, 2.2), 0.5, 5, 1)
    pts = analytic_boundary_contour(boundary_grid(ANY_MODEL, common, uncommon)).reshape(-1, 2)
    mu = np.array([2.2, 2.2])
    radius = np.sqrt(2.0 * mu @ mu + 2.0 * np.log(2.0))
    dist = np.linalg.norm(pts - 2.0 * mu, axis=1)
    assert np.max(np.abs(dist - radius)) < 0.01


def test_model_contour_matches_linear_decision_rule():
    # logits difference z0 - z1 = x + y - 2 -> boundary is the line x + y = 2
    model = MlpModel(
        [2, 2],
        [np.array([[0.5, 0.5], [-0.5, -0.5]])],
        [np.array([-1.0, 1.0])],
    )
    segs = model_boundary_contour(boundary_grid(model, DEFAULT_COMMON, DEFAULT_UNCOMMON))
    pts = segs.reshape(-1, 2)
    assert np.max(np.abs(pts.sum(axis=1) - 2.0)) < 1e-6


def test_model_contour_rejects_regressor():
    model = MlpModel([2, 1], [np.ones((1, 2))], [np.zeros(1)])
    with pytest.raises(ValueError, match="two-logit"):
        model_boundary_contour(boundary_grid(model, DEFAULT_COMMON, DEFAULT_UNCOMMON))


# ---------------------------------------------------------------------------
# emitted files
# ---------------------------------------------------------------------------


def test_scatter_figure_structure(tmp_path):
    ds = small_dataset()
    path = tmp_path / "scatter.svg"
    scatter_figure(glyphs_for(ds), path)
    root = parse(path)
    assert root.tag == f"{SVG}svg"
    # 30 common crosses in one path, 10 uncommon circles in another, boundary one more
    assert count_tags(root, "circle") == 0
    paths = root.findall(f".//{SVG}path")
    assert len(paths) == 3
    assert glyph_counts(root) == {"cross": 30, "circle": 10}
    dashes = [p.get("stroke-dasharray") for p in paths]
    assert any(d for d in dashes)


def test_prediction_figure_adds_model_curve(tmp_path):
    ds = small_dataset()
    model = MlpModel.initialize((2, 5, 2), seed=1)
    path = tmp_path / "pred.svg"
    prediction_figure(grid_for(ds, model), glyphs_for(ds), path)
    root = parse(path)
    strokes = {p.get("stroke") for p in root.findall(f".//{SVG}path")}
    assert "#1f77b4" in strokes  # model boundary drawn in its own color


def test_tail_figure_uses_three_colors(tmp_path):
    ds = small_dataset()
    codes = np.array([COMMON] * 20 + [RARE] * 10 + [HARD] * 9 + [UNVISITED])
    path = tmp_path / "tail.svg"
    tail_figure(glyphs_for(ds), codes, path)
    root = parse(path)
    strokes = {el.get("stroke") for el in root.iter()} - {None}
    assert {"#2ca02c", "#e6b800", "#d62728", "#bbbbbb"} <= strokes


def test_tail_figure_rare_only_drops_other_points(tmp_path):
    ds = small_dataset()
    codes = np.array([HARD] * 30 + [RARE] * 10)
    path = tmp_path / "rare.svg"
    tail_figure(glyphs_for(ds), codes, path, rare_only=True)
    root = parse(path)
    # the 10 rare examples are uncommon-class -> circles; nothing else drawn
    assert glyph_counts(root) == {"circle": 10}
    strokes = {el.get("stroke") for el in root.iter()} - {None}
    assert "#d62728" not in strokes


def test_entropy_figure_median_split(tmp_path):
    ds = small_dataset()
    entropy = np.linspace(0.0, 0.6, ds.n)
    path = tmp_path / "entropy.svg"
    entropy_figure(glyphs_for(ds), entropy, path)
    text = path.read_text()
    assert "#d62728" in text and "#2ca02c" in text


def test_entropy_figure_handles_unvisited(tmp_path):
    ds = small_dataset()
    entropy = np.full(ds.n, np.nan)
    entropy[:5] = 0.3
    path = tmp_path / "entropy.svg"
    entropy_figure(glyphs_for(ds), entropy, path)
    assert "#bbbbbb" in path.read_text()


def test_panel_figure_lays_out_columns(tmp_path):
    ds = small_dataset()
    model = MlpModel.initialize((2, 5, 2), seed=2)
    path = tmp_path / "panel.svg"
    grid = grid_for(ds, model)
    panel_figure([("w=1", grid_for(ds), ds), ("w=5", grid, ds), ("w=25", grid, ds)], path)
    root = parse(path)
    titles = [t.text for t in root.findall(f".//{SVG}text") if t.get("font-weight") == "bold"]
    assert titles == ["w=1", "w=5", "w=25"]
    assert int(root.get("width")) == 3 * (300 + 2 * 36)


def test_panel_figure_rejects_empty():
    with pytest.raises(ValueError, match="at least one panel"):
        panel_figure([], "unused.svg")


def test_render_svg_is_valid_xml(tmp_path):
    canvas = SvgCanvas(bounds=(0.0, 1.0), size=50, margin=5)
    canvas.frame("t")
    glyphs = glyphs_for(glyph_dataset(), bounds=(0.0, 1.0), size=50, margin=5)
    glyphs.draw(canvas, [(glyphs.common, "#000000"), (~glyphs.common, "#ff0000")])
    canvas.segments(np.array([[[0.0, 0.0], [1.0, 1.0]]]), "#00ff00")
    canvas.segments(np.empty((0, 2, 2)), "#0000ff")  # no segments, no element
    path = tmp_path / "mini.svg"
    render_svg([canvas], path)
    root = parse(path)
    lines = [p.get("d") for p in root.findall(f".//{SVG}path") if p.get("stroke") == "#00ff00"]
    assert lines == ["M5 55L55 5"]
    assert not [p for p in root.findall(f".//{SVG}path") if p.get("stroke") == "#0000ff"]
    assert count_tags(root, "circle") == 0
    assert glyph_counts(root) == {"cross": 4, "circle": 3}


# ---------------------------------------------------------------------------
# whole figures against a per-point reference
# ---------------------------------------------------------------------------


def reference_canvas(ds, title, groups, arm=2.5, boundary=True, model=None, **geometry):
    """A figure as per-point formatting draws it: for each (mask, color)
    group, one path of the chosen points' glyphs in point order, a cross for
    the common class and a circle for the rest, every coordinate formatted
    on its own."""
    canvas = SvgCanvas(**geometry)
    canvas.frame(title)
    common = ds.labels == ds.specs[0].label
    for mask, color in groups:
        pieces = [
            (cross_reference if k else circle_reference)(canvas, x, y, arm)
            for (x, y), k in zip(ds.points[mask], common[mask])
        ]
        if pieces:
            canvas.elements.append(glyph_path(pieces, color))
    if boundary:
        canvas.segments(analytic_reference(*ds.specs[:2]), "#333333", dashed=True)
    if model is not None:
        canvas.segments(model_reference(model), "#1f77b4", width=2.0)
    return canvas


def by_first_color(colors):
    """One (mask, color) group per color, in order of first appearance; None is not drawn."""
    colors = np.array(colors, dtype=object)
    return [(colors == c, c) for c in dict.fromkeys(colors.tolist()) if c is not None]


def class_groups(ds):
    common = ds.labels == ds.specs[0].label
    return [(common, "#2ca02c"), (~common, "#9467bd")]


def assert_same_file(tmp_path, path, canvases):
    render_svg(canvases, tmp_path / "reference.svg")
    assert path.read_bytes() == (tmp_path / "reference.svg").read_bytes()


def uncommon_first(ds):
    return Dataset2D(ds.points[::-1].copy(), ds.labels[::-1].copy(), ds.specs, ds.seed)


TAIL_HEX = {UNVISITED: "#bbbbbb", COMMON: "#2ca02c", RARE: "#e6b800", HARD: "#d62728"}


@pytest.mark.parametrize("order", ["common_first", "uncommon_first"])
def test_figures_match_per_point_reference(tmp_path, order):
    ds = small_dataset(3)
    if order == "uncommon_first":
        ds = uncommon_first(ds)
        assert ds.labels[0] != ds.specs[0].label
    glyphs = glyphs_for(ds)
    model = MlpModel.initialize((2, 5, 2), seed=4)
    path = tmp_path / "figure.svg"

    scatter_figure(glyphs, path)
    assert_same_file(tmp_path, path, [reference_canvas(ds, "data", class_groups(ds))])
    prediction_figure(grid_for(ds, model), glyphs, path)
    assert_same_file(
        tmp_path, path, [reference_canvas(ds, "predictions", class_groups(ds), model=model)]
    )

    # every code, the first point hard and an unvisited point second
    codes = np.resize([HARD, UNVISITED, RARE, COMMON, RARE], ds.n)
    colors = [TAIL_HEX[c] for c in codes.tolist()]
    tail_figure(glyphs, codes, path)
    assert_same_file(tmp_path, path, [reference_canvas(ds, "tail classes", by_first_color(colors))])
    tail_figure(glyphs, codes, path, rare_only=True)
    rare = [c if code == RARE else None for c, code in zip(colors, codes.tolist())]
    assert_same_file(tmp_path, path, [reference_canvas(ds, "rare set", by_first_color(rare))])
    no_rare = np.where(codes == RARE, HARD, codes)
    tail_figure(glyphs, no_rare, path, rare_only=True, title="empty")
    assert_same_file(tmp_path, path, [reference_canvas(ds, "empty", [])])

    entropy = np.random.default_rng(5).uniform(0.0, 0.7, ds.n)
    entropy[1::8] = np.nan  # unvisited; the 35 visited have a median point
    median = np.median(entropy[np.isfinite(entropy)])
    colors = [
        "#bbbbbb" if not np.isfinite(e) else "#d62728" if e > median else "#2ca02c"
        for e in entropy
    ]
    entropy_figure(glyphs, entropy, path)
    assert_same_file(
        tmp_path, path, [reference_canvas(ds, "entropy", by_first_color(colors), boundary=False)]
    )


def test_panel_figure_matches_per_point_reference(tmp_path):
    ds, other = small_dataset(6), uncommon_first(small_dataset(7))
    model, other_model = MlpModel.initialize((2, 5, 2), seed=8), MlpModel.initialize((2, 5, 2), 9)
    panels = [("a", model, ds), ("b", other_model, other), ("c", model, ds)]
    path = tmp_path / "panel.svg"
    panel_figure([(title, grid_for(d, m), d) for title, m, d in panels], path)
    canvases = [
        reference_canvas(
            d, title, class_groups(d), arm=1.8, model=m, size=300, margin=36, origin=(k * 372, 0)
        )
        for k, (title, m, d) in enumerate(panels)
    ]
    assert_same_file(tmp_path, path, canvases)
