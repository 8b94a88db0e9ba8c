"""Small hand-rolled SVG figures for the experiment runners.

Nothing here aims at publication quality: fixed canvas, plain axes,
points and reference curves, enough to eyeball a power law or a CF fit
without pulling in a plotting stack. Every plot function writes one file
and returns the sha256 of its bytes, for the run manifest.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _plottable(xy):
    return [(x, y) for x, y in xy if math.isfinite(x) and math.isfinite(y)]


class _Frame:
    """Maps data coordinates into the plotting box, optionally log-scaled."""

    def __init__(self, xs, ys, logx=False, logy=False):
        self.logx, self.logy = logx, logy
        xs = [math.log10(x) for x in xs] if logx else list(xs)
        ys = [math.log10(y) for y in ys] if logy else list(ys)
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        padx = 0.05 * (self.x1 - self.x0)
        pady = 0.05 * (self.y1 - self.y0)
        self.x0 -= padx
        self.x1 += padx
        self.y0 -= pady
        self.y1 += pady

    def px(self, x):
        if self.logx:
            x = math.log10(x)
        return _ML + (x - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)

    def py(self, y):
        if self.logy:
            y = math.log10(y)
        return _H - _MB - (y - self.y0) / (self.y1 - self.y0) * (_H - _MT - _MB)

    def ticks(self, axis):
        lo, hi = (self.x0, self.x1) if axis == "x" else (self.y0, self.y1)
        log = self.logx if axis == "x" else self.logy
        if log:
            lo_i, hi_i = math.ceil(lo), math.floor(hi)
            vals = [10.0**k for k in range(lo_i, hi_i + 1)]
            if not vals:
                vals = [10.0 ** (0.5 * (lo + hi))]
            return [(v, f"1e{int(round(math.log10(v)))}") for v in vals]
        step = 10 ** math.floor(math.log10(max(hi - lo, 1e-12)))
        for mult in (1, 2, 5, 10):
            if (hi - lo) / (step * mult) <= 6:
                step *= mult
                break
        first = math.ceil(lo / step) * step
        vals = []
        v = first
        while v <= hi + 1e-12 * abs(step):
            vals.append((v, f"{v:.4g}"))
            v += step
        return vals


def _axes(fr, xlabel, ylabel, title):
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>'
    ]
    for v, lab in fr.ticks("x"):
        x = fr.px(v)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
            f'y2="{_H - _MB + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{lab}</text>'
        )
    for v, lab in fr.ticks("y"):
        y = fr.py(v)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end">{lab}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">'
        f"{ylabel}</text>"
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 5}" font-size="13" '
        f'text-anchor="middle">{title}</text>'
    )
    return parts


def _polyline(fr, xy, color):
    pts = " ".join(f"{fr.px(x):.1f},{fr.py(y):.1f}" for x, y in xy)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def _dots(fr, xy, color, r=2.5):
    return "".join(
        f'<circle cx="{fr.px(x):.1f}" cy="{fr.py(y):.1f}" r="{r}" fill="{color}"/>'
        for x, y in xy
    )


def _write(path, body):
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )
    data = doc.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def survival_plot(path, rows, alpha, tail_constant):
    """Log-log survival curve with the fitted power-law reference line."""
    pts = _plottable([(t, p) for t, p, _ in rows if t > 0 and p > 0])
    if not pts:
        return _write(path, ['<text x="200" y="240">no positive mass</text>'])
    ref = [(t, tail_constant * t**-alpha) for t, _ in pts if tail_constant > 0]
    fr = _Frame(
        [p[0] for p in pts], [p[1] for p in pts + ref] or [1.0], logx=True, logy=True
    )
    body = _axes(fr, "t", "P(|X| > t)", "survival vs power law")
    if ref:
        body.append(_polyline(fr, ref, "#b33"))
    body.append(_dots(fr, pts, "#235"))
    return _write(path, body)


def hill_plot(path, rows, alpha_ref=None):
    pts = _plottable([(float(k), a) for k, a in rows])
    if not pts:
        return _write(path, ['<text x="200" y="240">empty ladder</text>'])
    ys = [p[1] for p in pts] + ([alpha_ref] if alpha_ref else [])
    fr = _Frame([p[0] for p in pts], ys, logx=True)
    body = _axes(fr, "k (top order statistics)", "tail index estimate", "Hill ladder")
    if alpha_ref:
        body.append(_polyline(fr, [(pts[0][0], alpha_ref), (pts[-1][0], alpha_ref)], "#b33"))
    body.append(_dots(fr, pts, "#235"))
    return _write(path, body)


def cf_plot(path, t_values, cf_modulus, alpha_hat=None, intercept=None):
    """|CF| against t with the fitted stretched-exponential overlay."""
    pts = _plottable(list(zip(t_values, cf_modulus)))
    if not pts:
        return _write(path, ['<text x="200" y="240">empty CF grid</text>'])
    fr = _Frame([p[0] for p in pts], [p[1] for p in pts] + [0.0, 1.0], logx=True)
    body = _axes(fr, "t", "|CF(t)|", "empirical CF modulus")
    if alpha_hat is not None and intercept is not None:
        ts = np.geomspace(pts[0][0], pts[-1][0], 64)
        fit = [(t, math.exp(-math.exp(intercept) * t**alpha_hat)) for t in ts]
        body.append(_polyline(fr, fit, "#b33"))
    body.append(_dots(fr, pts, "#235"))
    return _write(path, body)


def qq_plot(path, samples):
    """Normal QQ of standardized samples against the unit diagonal."""
    from scipy import stats

    x = np.sort(np.asarray(samples, dtype=float))
    x = (x - x.mean()) / x.std()
    n = len(x)
    q = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    step = max(1, n // 400)
    pts = list(zip(q[::step], x[::step]))
    fr = _Frame([p[0] for p in pts], [p[1] for p in pts])
    body = _axes(fr, "normal quantile", "sample quantile", "normal QQ")
    lo = max(fr.x0, fr.y0)
    hi = min(fr.x1, fr.y1)
    body.append(_polyline(fr, [(lo, lo), (hi, hi)], "#b33"))
    body.append(_dots(fr, pts, "#235", r=1.5))
    return _write(path, body)


def cloud_plot(path, points):
    """Stationary-support point cloud, one or two dimensions."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        xy = [(float(x), 0.0) for x in pts]
    elif pts.shape[1] == 2:
        xy = [(float(a), float(b)) for a, b in pts]
    else:
        return _write(path, ['<text x="200" y="240">cloud plot needs d &lt;= 2</text>'])
    fr = _Frame([p[0] for p in xy], [p[1] for p in xy] or [0.0])
    body = _axes(fr, "x1", "x2" if pts.ndim > 1 else "", "support cloud")
    body.append(_dots(fr, xy, "#235", r=2.0))
    return _write(path, body)


def kappa_plot(path, s_values, kappa_values, alpha=None):
    pts = _plottable(list(zip(s_values, kappa_values)))
    if not pts:
        return _write(path, ['<text x="200" y="240">empty grid</text>'])
    fr = _Frame([p[0] for p in pts], [p[1] for p in pts] + [1.0])
    body = _axes(fr, "s", "E |M|^s", "moment curve and its unit crossing")
    body.append(_polyline(fr, [(pts[0][0], 1.0), (pts[-1][0], 1.0)], "#999"))
    if alpha is not None and fr.x0 < alpha < fr.x1:
        body.append(_polyline(fr, [(alpha, fr.y0), (alpha, fr.y1)], "#b33"))
    body.append(_dots(fr, pts, "#235"))
    body.append(_polyline(fr, pts, "#235"))
    return _write(path, body)
