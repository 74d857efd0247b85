import math
import re

from thz_ris_planner import svgplot

CELL = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="rgb\((\d+),(\d+),(\d+)\)"/>')


def test_heatmap_rasterises_to_the_shade_law_and_draws_no_background_cell(tmp_path):
    floor, nan, inf = -60.0, math.nan, math.inf
    z = [
        [0.0, -10.0, -59.9, -60.0, -75.0],
        [nan, -inf, -30.0, -60.0 - 1e-9, -1e-9],
        [-45.5, nan, -inf, -0.5, -60.0 + 1e-9],
        [-20.0, -40.0, -59.0, -61.0, nan],
    ]
    nx, ny = len(z), len(z[0])
    path = tmp_path / "map.svg"
    svgplot.heatmap(path, list(range(nx)), list(range(ny)), z, "u", "v", "map", z_floor=floor)

    cw = (svgplot._W - svgplot._ML - svgplot._MR) / nx
    ch = (svgplot._H - svgplot._MT - svgplot._MB) / ny
    image = [[255] * ny for _ in range(nx)]  # the white background
    drawn = []
    for x, y, width, height, r, g, b in CELL.findall(path.read_text()):
        i = round((float(x) - svgplot._ML) / cw)
        j = ny - 1 - round((float(y) - svgplot._MT) / ch)
        assert (x, y) == (f"{svgplot._ML + i * cw:.2f}", f"{svgplot._MT + (ny - 1 - j) * ch:.2f}")
        assert (width, height) == (f"{cw + 0.5:.2f}", f"{ch + 0.5:.2f}")  # one cell and its seam
        assert r == g == b
        image[i][j] = int(r)
        drawn.append((i, j))

    # white at and below the floor, black at the largest finite z, linear between
    z_hi = max(v for row in z for v in row if math.isfinite(v))
    law = [
        [255 if math.isnan(v) else int(255 * (1.0 - (min(max(v, floor), z_hi) - floor) / (z_hi - floor))) for v in row]
        for row in z
    ]
    assert image == law
    # NaN, -inf and cells at or below the floor are the background: no rect
    assert sorted(drawn) == [(i, j) for i, row in enumerate(z) for j, v in enumerate(row) if v > floor]


def test_line_plot_draws_a_lone_finite_point_as_a_dot(tmp_path):
    nan = math.nan
    series = [([0.0, 1.0, 2.0], [nan, 3.0, nan], "lone"), ([0.0, 2.0], [1.0, 5.0], "pair"), ([1.0], [4.0], "one")]
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, series, "x", "y", "dots")
    text = path.read_text()
    polylines = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="([^"]+)"', text)
    circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="3" fill="([^"]+)"/>', text)
    # a one-point polyline draws nothing, so each lone point gets a dot at it in its series' colour
    assert [(points, color) for points, color in polylines if " " not in points] == [
        (f"{cx},{cy}", color) for cx, cy, color in circles
    ]
    assert [color for *_, color in circles] == [svgplot._COLORS[0], svgplot._COLORS[2]]
