"""Self-contained SVG rendering for histograms, fit overlays, and
cross-talk curves.

No plotting library: the figures are simple enough (axes, ticks, a step
polyline, an overlay curve) that hand-built markup keeps the toolkit
dependency-free and the output deterministic byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .coincidence import DeltaHistogram
from .crosstalk import CtCurve

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 18, 34, 48

_STYLE = ("font-family:Helvetica,Arial,sans-serif;font-size:12px;"
          "fill:#222")


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    step = _nice_step(hi - lo, target)
    v = math.ceil(lo / step) * step
    out = []
    while v <= hi + step * 1e-9:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e5 or a < 1e-3:
        exp = math.floor(math.log10(a))
        mant = v / 10.0 ** exp
        if abs(mant - round(mant)) < 1e-9:
            mant = round(mant)
            return f"{mant:g}e{exp:d}"
        return f"{mant:.1f}e{exp:d}"
    return f"{v:g}"


class _Frame:
    """Axes box with linear x and linear or log y mapping to pixels."""

    def __init__(self, x_range, y_range, *, log_y=False):
        self.x0, self.x1 = x_range
        self.log_y = log_y
        if log_y:
            self.y0, self.y1 = math.log10(y_range[0]), math.log10(y_range[1])
        else:
            self.y0, self.y1 = y_range
        self.parts: list[str] = []

    def px(self, x: float) -> float:
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        v = math.log10(y) if self.log_y else y
        return _H - _MB - (v - self.y0) / (self.y1 - self.y0) \
            * (_H - _MT - _MB)

    def add(self, part: str) -> None:
        self.parts.append(part)

    def axes(self, xlabel: str, ylabel: str, title: str | None,
             x_ticks, y_ticks) -> None:
        left, bottom = _ML, _H - _MB
        self.add(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        self.add(f'<line x1="{left}" y1="{_MT}" x2="{left}" y2="{bottom}" '
                 'stroke="#222"/>')
        self.add(f'<line x1="{left}" y1="{bottom}" x2="{_W - _MR}" '
                 f'y2="{bottom}" stroke="#222"/>')
        for t in x_ticks:
            x = self.px(t)
            self.add(f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" '
                     f'y2="{bottom + 5}" stroke="#222"/>')
            self.add(f'<text x="{x:.2f}" y="{bottom + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
        for t in y_ticks:
            y = self.py(t)
            self.add(f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" '
                     f'y2="{y:.2f}" stroke="#222"/>')
            self.add(f'<text x="{left - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
        self.add(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
                 f'text-anchor="middle">{xlabel}</text>')
        self.add(f'<text x="16" y="{(_MT + bottom) / 2:.0f}" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT + bottom) / 2:.0f})">{ylabel}</text>')
        if title:
            self.add(f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
                f'height="{_H}" viewBox="0 0 {_W} {_H}" style="{_STYLE}">\n'
                f'{body}\n</svg>\n')


def histogram_svg(hist: DeltaHistogram, fit=None,
                  title: str | None = None) -> str:
    """Step plot of a coincidence histogram, optional fitted model on top.

    Normalized values are plotted when present, raw counts otherwise;
    the overlay is ``fit.model``, in whichever units the fit was made in,
    which for this toolkit is always the same as the histogram's.
    """
    edges = hist.bin_edges
    y = hist.normalized if hist.normalized is not None \
        else hist.counts.astype(np.float64)
    y_top = float(y.max()) if len(y) and y.max() > 0 else 1.0

    frame = _Frame((float(edges[0]), float(edges[-1])), (0.0, 1.1 * y_top))
    frame.axes("dt (ps)",
               "counts / median" if hist.normalized is not None
               else "counts per bin",
               title, _ticks(edges[0], edges[-1]),
               _ticks(0.0, 1.1 * y_top, 5))

    pts = []
    for i, v in enumerate(y):
        pts.append(f"{frame.px(edges[i]):.2f},{frame.py(v):.2f}")
        pts.append(f"{frame.px(edges[i + 1]):.2f},{frame.py(v):.2f}")
    frame.add(f'<polyline points="{" ".join(pts)}" fill="none" '
              'stroke="#246" stroke-width="1"/>')

    if fit is not None:
        xs = np.linspace(float(edges[0]), float(edges[-1]), 400)
        ys = np.clip(fit.model(xs), 0.0, 1.1 * y_top)
        mpts = " ".join(f"{frame.px(x):.2f},{frame.py(v):.2f}"
                        for x, v in zip(xs, ys))
        frame.add(f'<polyline points="{mpts}" fill="none" stroke="#c22" '
                  'stroke-width="1.5"/>')
    return frame.render()


def ct_curve_svg(curve: CtCurve, title: str | None = None) -> str:
    """Cross-talk probability versus distance on a log scale.

    Upper-limit points are drawn hollow; zero probabilities sit on the
    plot floor since a log axis cannot show them where they are.
    """
    if not curve.points:
        raise ValueError("curve has no points to draw")
    probs = curve.probabilities
    errs = curve.stderrs
    positive = [v for v in np.concatenate([probs, errs]) if v > 0]
    floor = min(positive) / 3.0 if positive else 1e-8
    top = float(max(np.max(probs + errs), floor * 10.0)) * 2.0

    d_max = int(curve.distances.max())
    frame = _Frame((0.0, d_max + 1.0), (floor, top), log_y=True)
    decades = range(math.floor(math.log10(floor)),
                    math.ceil(math.log10(top)) + 1)
    frame.axes("pixel separation", "cross-talk probability", title,
               list(range(1, d_max + 1, max(1, (d_max + 9) // 10))),
               [10.0 ** k for k in decades])

    line_pts = []
    for point in curve.points:
        x = frame.px(point.distance)
        p = max(point.probability, floor)
        y = frame.py(p)
        line_pts.append(f"{x:.2f},{y:.2f}")
        hi = frame.py(min(max(p + point.stderr, floor), top))
        lo = frame.py(max(p - point.stderr, floor))
        frame.add(f'<line x1="{x:.2f}" y1="{hi:.2f}" x2="{x:.2f}" '
                  f'y2="{lo:.2f}" stroke="#246"/>')
        fill = "white" if point.upper_limit else "#246"
        frame.add(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
                  f'fill="{fill}" stroke="#246"/>')
    frame.add(f'<polyline points="{" ".join(line_pts)}" fill="none" '
              'stroke="#246" stroke-width="0.75" stroke-dasharray="3 3"/>')
    return frame.render()
