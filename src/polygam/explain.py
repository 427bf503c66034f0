"""Shape-function export, marginal effects, elasticities, and SVG rendering."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .data import is_integer, real_values
from .errors import ConfigError
from .losses import link_apply
from .model import ParameterStore, check_pair, evaluate_derivative, evaluate_shape, predict
from .uncertainty import shape_ci

DEFAULT_GRID = 512
SVG_WIDTH, SVG_HEIGHT = 640, 440  # `render_svg`'s canvas, in pixels


@dataclass
class ShapeGrid:
    """One shape function sampled on a grid, with derivatives and optional CI."""

    output: int
    feature: int
    feature_name: str
    x: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    f_double_prime: np.ndarray
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None

    @property
    def has_ci(self) -> bool:
        return self.ci_lower is not None


def shape_grid(
    store: ParameterStore, i: int, k: int, grid_size: int = DEFAULT_GRID, with_ci: bool = False
) -> ShapeGrid:
    """Sample shape i,k on grid_size points spanning the observed range;
    a grid_size that is not an integer >= 1 is refused, as are indices
    outside the model."""
    if not is_integer(grid_size):
        raise ConfigError(f"grid_size must be an integer, got {grid_size!r}")
    if grid_size < 1:
        raise ConfigError(f"grid_size must be >= 1, got {grid_size}")
    check_pair(store, i, k)
    fb = store.layout[k]
    if fb.x_max > fb.x_min:
        x = np.linspace(fb.x_min, fb.x_max, grid_size)
    else:
        x = np.array([fb.x_min])  # constant feature
    f = evaluate_shape(store, i, k, x)
    fp = evaluate_derivative(store, i, k, x, order=1)
    fpp = evaluate_derivative(store, i, k, x, order=2)
    lo = hi = None
    if with_ci:
        _, lo, hi = shape_ci(store, i, k, x)
    return ShapeGrid(i, k, store.feature_names[k], x, f, fp, fpp, lo, hi)


def _write_grid_csv(grid: ShapeGrid, path: str) -> None:
    cols = [grid.x, grid.f, grid.f_prime, grid.f_double_prime]
    header = "x,f,f_prime,f_double_prime"
    if grid.has_ci:
        cols += [grid.ci_lower, grid.ci_upper]
        header += ",ci_lower,ci_upper"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def export_shapes(
    store: ParameterStore,
    out_dir: str,
    features: list[str] | None = None,
    grid_size: int = DEFAULT_GRID,
    with_ci: bool = False,
    svg: bool = True,
) -> list[ShapeGrid]:
    """Write shape_<output>_<feature>.csv (and .svg) per allowed pair.

    Only (output, feature) pairs permitted by the allow-mask are exported.
    Unknown feature names in the filter are an error; so are requesting CI
    output on a model without stored accumulators and a grid_size that is
    not an integer >= 1.
    Every grid is sampled before the directory is made.
    """
    names = store.feature_names
    if features is None:
        selected = list(range(len(names)))
    else:
        missing = [f for f in features if f not in names]
        if missing:
            raise ConfigError(f"unknown feature name(s): {', '.join(sorted(missing))}")
        selected = [names.index(f) for f in features]
    if with_ci and not store.has_uncertainty:
        raise ConfigError("model stores no uncertainty accumulators; cannot export CIs")
    grids = [shape_grid(store, i, k, grid_size, with_ci) for k in selected
             for i in range(store.n_outputs) if store.constraints.allow_mask[i, k]]
    os.makedirs(out_dir, exist_ok=True)
    for grid in grids:
        base = os.path.join(out_dir, f"shape_{grid.output}_{grid.feature_name}")
        _write_grid_csv(grid, base + ".csv")
        if svg:
            with open(base + ".svg", "w") as fh:
                fh.write(render_svg(grid))
    return grids


def elasticity(store: ParameterStore, i: int, k: int, x: float, row=None) -> float:
    """Point elasticity of output i with respect to feature k at x.

    Regression: x * f'(x) / (intercept + f(x)), the score restricted to this
    feature. Classification: x * (dp_i/dx_k) / p_i with the sigmoid/softmax
    chain rule dp_i/dx_k = p_i*(1-p_i)*f'(x); this collapses to a function of
    f' alone only when feature k feeds a single output, so a full feature row
    is required to evaluate p_i and multi-output features are refused.
    """
    fp = float(evaluate_derivative(store, i, k, x, order=1))
    if store.task == "regression":
        denom = float(store.intercepts[i]) + float(evaluate_shape(store, i, k, x))
        if denom == 0.0:
            raise ZeroDivisionError("score is zero at x; elasticity undefined")
        return x * fp / denom
    n_allowed = int(store.constraints.allow_mask[:, k].sum())
    if store.n_outputs > 1 and n_allowed > 1:
        warnings.warn(
            f"feature {store.feature_names[k]!r} feeds {n_allowed} outputs; "
            "probability elasticity is not a function of one shape derivative",
            stacklevel=2,
        )
        raise ConfigError("probability elasticity requires a single-output feature")
    if row is None:
        raise ConfigError("probability elasticity requires a full feature row")
    row = real_values(row, "row").reshape(1, -1).copy()
    row[0, k] = x
    p = link_apply(store.task, predict(store, row))[0]
    p_i = float(p[i] if store.task == "multiclass" else p[0])
    if p_i == 0.0:
        raise ZeroDivisionError("predicted probability is zero; elasticity undefined")
    return x * p_i * (1.0 - p_i) * fp / p_i


# ---------------------------------------------------------------------------
# SVG rendering


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _px(v: float) -> str:
    return f"{v:.2f}"


def render_svg(grid: ShapeGrid) -> str:
    """Self-contained SVG 1.1 line plot of a shape grid.

    Axes with ticks, the f polyline, and a shaded CI band when present.
    Deterministic: same grid, same bytes. Infinite CI values are clipped to
    the plot range.
    """
    if grid.x.size == 0:
        raise ConfigError("cannot render an empty grid")
    ml, mr, mt, mb = 70.0, 20.0, 24.0, 50.0
    pw, ph = SVG_WIDTH - ml - mr, SVG_HEIGHT - mt - mb

    x0, x1 = float(grid.x[0]), float(grid.x[-1])
    if x1 <= x0:
        x1 = x0 + 1.0
    ys = [grid.f]
    if grid.has_ci:
        ys += [grid.ci_lower[np.isfinite(grid.ci_lower)], grid.ci_upper[np.isfinite(grid.ci_upper)]]
    y_all = np.concatenate([np.atleast_1d(y) for y in ys if np.size(y)])
    y0, y1 = float(y_all.min()), float(y_all.max())
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        v = min(max(v, y0), y1)  # clips infinite CI values
        return mt + (y1 - v) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    if grid.has_ci and grid.x.size > 1:
        pts = [f"{_px(sx(x))},{_px(sy(u))}" for x, u in zip(grid.x, grid.ci_upper)]
        pts += [f"{_px(sx(x))},{_px(sy(l))}" for x, l in zip(grid.x[::-1], grid.ci_lower[::-1])]
        parts.append(f'<polygon points="{" ".join(pts)}" fill="#c9d8ef" stroke="none"/>')
    # axes
    parts.append(
        f'<line x1="{_px(ml)}" y1="{_px(mt + ph)}" x2="{_px(ml + pw)}" y2="{_px(mt + ph)}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_px(ml)}" y1="{_px(mt)}" x2="{_px(ml)}" y2="{_px(mt + ph)}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tv in np.linspace(x0, x1, 5):
        px = sx(tv)
        parts.append(
            f'<line x1="{_px(px)}" y1="{_px(mt + ph)}" x2="{_px(px)}" y2="{_px(mt + ph + 5)}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(px)}" y="{_px(mt + ph + 20)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(tv)}</text>'
        )
    for tv in np.linspace(y0, y1, 5):
        py = sy(tv)
        parts.append(
            f'<line x1="{_px(ml - 5)}" y1="{_px(py)}" x2="{_px(ml)}" y2="{_px(py)}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(ml - 8)}" y="{_px(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(tv)}</text>'
        )
    if grid.x.size > 1:
        pts = " ".join(f"{_px(sx(x))},{_px(sy(v))}" for x, v in zip(grid.x, grid.f))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
        )
    else:
        parts.append(
            f'<circle cx="{_px(sx(x0))}" cy="{_px(sy(float(grid.f[0])))}" r="3" fill="#1f4e9c"/>'
        )
    parts.append(
        f'<text x="{_px(ml + pw / 2)}" y="{_px(SVG_HEIGHT - 12)}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{grid.feature_name}</text>'
    )
    parts.append(
        f'<text x="{_px(ml + pw / 2)}" y="{_px(mt - 8)}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">'
        f"output {grid.output}: {grid.feature_name}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
