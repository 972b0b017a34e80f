import math

from qlma.svg import write_line_plot


def test_plot_contains_polyline_and_legend(tmp_path):
    path = tmp_path / "plot.svg"
    write_line_plot(path, {"mean": ([1, 2, 3], [10.0, 1.0, 0.1])}, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert ">mean<" in text
    assert ">demo<" in text
    assert "1e1" in text and "1e-1" in text  # decade ticks span the data


def test_plot_is_deterministic(tmp_path):
    series = {"a": ([0, 1], [1.0, 2.0]), "b": ([0, 1], [2.0, 0.5])}
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_line_plot(p1, series)
    write_line_plot(p2, series)
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_drops_nonpositive_points_on_log_axis(tmp_path):
    path = tmp_path / "plot.svg"
    write_line_plot(path, {"s": ([1, 2, 3, 4], [1.0, 0.0, math.inf, 2.0])})
    assert "<polyline" in path.read_text()


def test_plot_survives_empty_and_constant_series(tmp_path):
    write_line_plot(tmp_path / "empty.svg", {"s": ([], [])})
    write_line_plot(tmp_path / "const.svg", {"s": ([1, 2], [10.0, 10.0])})
    assert (tmp_path / "empty.svg").exists()
    assert (tmp_path / "const.svg").exists()
