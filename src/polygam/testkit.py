"""Independent oracles for the test suites.

Everything here is written for clarity over speed and is deliberately kept off
the production code paths: nothing in the library imports this module. Tests
compare fast-path results against these brute-force references.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .model import _document

__all__ = [
    "brute_force_stump",
    "dense_bin_transform",
    "finite_diff_grad",
    "finite_diff_second",
    "param_gradients",
    "reference_dumps",
    "reference_predict",
    "tree_list_eval",
]


def _leaf_value(sg: float, sh: float, l1: float, l2: float) -> float:
    # same closed form the booster uses: soft-threshold on the gradient sum,
    # ridge term on the hessian sum, denominator floored away from zero
    mag = max(abs(sg) - l1, 0.0)
    num = -math.copysign(mag, sg) if mag > 0.0 else 0.0
    den = max(sh + l2, 1e-12)
    return num / den


def brute_force_stump(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    thresholds: np.ndarray,
    l1: float = 0.0,
    l2: float = 0.0,
    min_leaf: int = 1,
):
    """Exhaustive degree-0 stump search.

    For every threshold u the samples split into {x < u} and {x >= u}, each
    side's leaf value is the closed-form Newton step, and the quadratic model
    loss  sum_sides (gamma*sum_g + 0.5*gamma^2*sum_h)  is evaluated directly.
    Side sums use math.fsum, so the result is independent of sample order.
    Returns (threshold, gamma_left, gamma_right, model_loss) for the argmin,
    ties broken toward the lowest threshold, or None when no threshold leaves
    min_leaf samples on both sides.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    x = np.asarray(x, dtype=float)
    best = None
    for u in sorted(np.asarray(thresholds, dtype=float).tolist()):
        left = x < u
        right = ~left
        if int(left.sum()) < min_leaf or int(right.sum()) < min_leaf:
            continue
        loss = 0.0
        gammas = []
        for side in (left, right):
            sg = math.fsum(g[side])
            sh = math.fsum(h[side])
            gamma = _leaf_value(sg, sh, l1, l2)
            gammas.append(gamma)
            loss += gamma * sg + 0.5 * gamma * gamma * sh
        if best is None or loss < best[3]:
            best = (float(u), gammas[0], gammas[1], loss)
    return best


def param_gradients(g: np.ndarray, h: np.ndarray, x: np.ndarray, threshold: float, d: int):
    """Reference split sums, computed directly per side (no prefix tricks):
    returns ((sum g*(x-u)^d left, right), (sum h*(x-u)^2d left, right))."""
    s = np.asarray(x, dtype=float) - threshold
    left = s < 0
    p = s**d
    q = s ** (2 * d)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    return (
        (float((g * p)[left].sum()), float((g * p)[~left].sum())),
        (float((h * q)[left].sum()), float((h * q)[~left].sum())),
    )


def dense_bin_transform(x, edges) -> np.ndarray:
    """Binned-variable transform x*_{kb} of every bin, shape x.shape +
    (n_bins,), column b-1 holding bin b: 0 below the bin, raw x in the first
    bin, offset from the lower edge inside later bins, saturating at the
    bin's upper edge value above it (the last bin never saturates).

    A middle bin saturates at its upper edge value u_b, not at its width
    u_b - u_{b-1}, so the transform jumps at u_b: for edges [1, 2], bin 2
    gives 0.999 at x = 1.999 and 2.0 from x = 2 on.
    """
    e = np.asarray(edges, dtype=float)
    lo = np.concatenate(([-np.inf], e))
    hi = np.concatenate((e, [np.inf]))
    xv = np.asarray(x, dtype=float)[..., None]
    out = xv - np.concatenate(([0.0], e))
    np.copyto(out, hi, where=~(xv < hi))  # not xv >= hi: NaN maps to the upper edge
    np.copyto(out, 0.0, where=xv < lo)
    return out


def finite_diff_grad(fn, x: np.ndarray, delta: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += delta
        lo.flat[i] -= delta
        out.flat[i] = (fn(hi) - fn(lo)) / (2.0 * delta)
    return out


def finite_diff_second(fn, x: np.ndarray, delta: float = 1e-4) -> np.ndarray:
    """Central second difference per coordinate (diagonal of the Hessian)."""
    x = np.asarray(x, dtype=float)
    mid = fn(x)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += delta
        lo.flat[i] -= delta
        out.flat[i] = (fn(hi) - 2.0 * mid + fn(lo)) / (delta * delta)
    return out


def tree_list_eval(
    X: np.ndarray,
    feature_names: list,
    intercepts: np.ndarray,
    records: list,
    learning_rate: float,
    x_ref: list,
) -> np.ndarray:
    """Evaluate a boosted model as the literal sum of its logged tree updates.

    Takes plain dicts in the training-log schema, so it shares no code with
    the parameter store. Each split record contributes
    gamma_side * (x - threshold)^degree on its side of the threshold; each
    global record contributes gamma * (x - x_ref[k])^degree everywhere.
    """
    X = np.asarray(X, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    F = np.tile(intercepts, (X.shape[0], 1))
    for rec in records:
        k = feature_names.index(rec["feature"])
        xk = X[:, k]
        i = int(rec["output"])
        d = int(rec["degree"])
        if rec["kind"] == "global":
            F[:, i] += learning_rate * rec["gamma_left"] * (xk - x_ref[k]) ** d
        else:
            u = rec["threshold"]
            gamma = np.where(xk < u, rec["gamma_left"], rec["gamma_right"])
            F[:, i] += learning_rate * gamma * (xk - u) ** d
    return F


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _dump(obj, out: list[str]) -> None:
    """Minimal JSON writer: floats via repr (shortest exact decimal)."""
    obj = _jsonable(obj)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite value in model serialization")
        out.append(repr(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for n, item in enumerate(obj):
            if n:
                out.append(",")
            _dump(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for n, (key, val) in enumerate(obj.items()):
            if n:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _dump(val, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_dumps(store) -> str:
    """Model text from a recursive pure-Python JSON writer, one value at a
    time: the byte oracle for `model.dumps_model`, which must match it."""
    out: list[str] = []
    _dump(_document(store), out)
    return "".join(out)


def reference_predict(store, X, return_codes=False):
    """`predict` as a loop over features, then outputs, each pair adding
    step + ((c3*t + c2)*t + c1)*t + c0 to its output's column in turn: the bit
    oracle for its flat pass. Fine codes come from np.searchsorted."""
    X = np.asarray(X, dtype=float)
    F = np.tile(store.intercepts, (X.shape[0], 1))
    mask = store.constraints.allow_mask
    codes = [None] * X.shape[1]
    for k in range(X.shape[1]):
        if not mask[:, k].any():
            continue
        fb, x = store.layout[k], X[:, k]
        fcode = np.searchsorted(fb.fine_edges, x, side="right")
        piece = fb.piece_of_fine[fcode]
        t = x - fb.coarse_lower_edges[piece]
        for i in range(store.n_outputs):
            if mask[i, k]:
                sp = store.params[i][k]
                c = sp.poly_coeffs[piece]
                F[:, i] += (sp.step_values[fcode] + ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t
                            ) + c[:, 0]
        if return_codes:
            codes[k] = fcode.astype(np.min_scalar_type(fb.n_fine_bins - 1))
    return (F, codes) if return_codes else F
