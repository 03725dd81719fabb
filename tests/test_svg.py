"""Structural checks on the hand-rolled SVG output."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spadkit.coincidence import DeltaHistogram, normalize_histogram
from spadkit.crosstalk import CtCurve, CtPoint
from spadkit.peakfit import fit_gaussian, fit_two_peaks
from spadkit.svg import _fmt, _ticks, ct_curve_svg, histogram_svg

_SVG = "{http://www.w3.org/2000/svg}"


def gaussian_hist(mu=0.0, sigma=300.0, amp=400.0, bg=50.0, window=6000.0,
                  bw=100.0):
    n = int(np.ceil(2 * window / bw))
    centers = -window + bw * (np.arange(n) + 0.5)
    lam = bg + amp * np.exp(-0.5 * ((centers - mu) / sigma) ** 2)
    counts = np.random.default_rng(3).poisson(lam)
    return DeltaHistogram(pixel_a=1, pixel_b=2, window_ps=window,
                          bin_width_ps=bw, counts=counts.astype(np.int64),
                          total_pairs=int(counts.sum()))


def elements(svg_text, tag):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{_SVG}{tag}")


def test_histogram_svg_is_valid_xml_with_step_polyline():
    hist = gaussian_hist()
    text = histogram_svg(hist)
    lines = elements(text, "polyline")
    assert len(lines) == 1
    n_points = len(lines[0].get("points").split())
    assert n_points == 2 * len(hist.counts)
    assert "counts per bin" in text


def test_histogram_svg_overlays_fit_curve():
    hist = normalize_histogram(gaussian_hist())
    fit = fit_gaussian(hist)
    text = histogram_svg(hist, fit, title="pair 1,2")
    assert len(elements(text, "polyline")) == 2
    assert "counts / median" in text
    assert "pair 1,2" in text


def test_histogram_svg_overlays_two_peak_fit():
    window, bw = 8000.0, 100.0
    n = int(np.ceil(2 * window / bw))
    centers = -window + bw * (np.arange(n) + 0.5)
    lam = 40.0 + 500 * np.exp(-0.5 * ((centers - 0) / 250) ** 2) \
        + 300 * np.exp(-0.5 * ((centers - 5000) / 250) ** 2)
    counts = np.random.default_rng(5).poisson(lam)
    hist = DeltaHistogram(pixel_a=0, pixel_b=3, window_ps=window,
                          bin_width_ps=bw, counts=counts.astype(np.int64),
                          total_pairs=int(counts.sum()))
    fit = fit_two_peaks(hist, separation_hint_ps=5000.0)
    text = histogram_svg(hist, fit)
    assert len(elements(text, "polyline")) == 2
    ET.fromstring(text)


def test_histogram_svg_draws_the_fit_model():
    class Level:
        def model(self, x):
            return np.full(len(x), 50.0)

    text = histogram_svg(gaussian_hist(), Level())
    overlay = elements(text, "polyline")[1].get("points").split()
    assert len(overlay) == 400
    assert len({pt.split(",")[1] for pt in overlay}) == 1


def test_empty_histogram_still_renders():
    hist = DeltaHistogram(pixel_a=0, pixel_b=1, window_ps=1000.0,
                          bin_width_ps=100.0,
                          counts=np.zeros(20, dtype=np.int64), total_pairs=0)
    ET.fromstring(histogram_svg(hist))


def test_ct_curve_svg_markers_and_limits():
    curve = CtCurve(
        points=(CtPoint(1, 1.2e-3, 4e-5, 14, False),
                CtPoint(2, 2.0e-5, 6e-6, 14, False),
                CtPoint(3, 0.0, 3e-6, 14, True)),
        pairs=((7, 8),), window_ps=25_000.0)
    text = ct_curve_svg(curve, title="microlens")
    circles = elements(text, "circle")
    assert len(circles) == 3
    fills = [c.get("fill") for c in circles]
    assert fills.count("white") == 1  # the upper-limit point is hollow
    assert "cross-talk probability" in text
    assert "microlens" in text


def test_ct_curve_svg_rejects_empty():
    with pytest.raises(ValueError):
        ct_curve_svg(CtCurve(points=(), pairs=(), window_ps=1.0))


def test_tick_helpers():
    ticks = _ticks(-5000.0, 5000.0)
    assert ticks == sorted(ticks)
    assert ticks[0] >= -5000.0 and ticks[-1] <= 5000.0 + 1e-6
    assert 0.0 in ticks
    assert _fmt(0) == "0"
    assert _fmt(2500) == "2500"
    assert _fmt(1e-5) == "1e-5"
    assert _fmt(120000.0) == "1.2e5"
