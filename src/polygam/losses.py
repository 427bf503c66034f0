"""Losses, link functions, and their first/second derivatives.

All derivative formulas are with respect to the raw score F, per output:
regression uses squared error on the identity link, binary uses cross-entropy
through a sigmoid, multiclass uses cross-entropy through a softmax with a
diagonal Hessian approximation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

P_CLIP = 1e-15
H_FLOOR = 1e-12


@dataclass
class DerivativeBatch:
    """Per-sample, per-output gradient and Hessian diagonal of the loss in F.

    h is clamped below by 1e-12 so Newton steps never divide by zero.
    """

    g: np.ndarray  # (N, J)
    h: np.ndarray  # (N, J)


def _as_scores(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    return F


def _sigmoid(F: np.ndarray) -> np.ndarray:
    # evaluated piecewise to avoid overflow in exp for large |F|
    out = np.empty_like(F)
    pos = F >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-F[pos]))
    ez = np.exp(F[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(F: np.ndarray) -> np.ndarray:
    # the row max as a running max over columns: a max does not depend on
    # order, and this is several times faster than a reduction along rows
    # a few values long
    z = F - functools.reduce(np.maximum, F.T)[:, None]
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def link_apply(task: str, F: np.ndarray) -> np.ndarray:
    """Map raw scores to predictions: identity, sigmoid, or row-softmax."""
    F = _as_scores(F)
    if task == "regression":
        return F.copy()
    if task == "binary":
        return _sigmoid(F)
    if task == "multiclass":
        return _softmax(F)
    raise DataError(f"unknown task {task!r}")


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y.astype(np.intp)] = 1.0
    return out


def loss_eval(task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None) -> float:
    """Mean loss over samples at raw scores F. p, when given, is
    link_apply(task, F) already computed by the caller."""
    F = _as_scores(F)
    y = np.asarray(y)
    if task == "regression":
        r = y.astype(float) - F[:, 0]
        return float(np.mean(r * r))
    p = np.clip(link_apply(task, F) if p is None else p, P_CLIP, 1.0 - P_CLIP)
    if task == "binary":
        yy = y.astype(float)
        return float(-np.mean(yy * np.log(p[:, 0]) + (1.0 - yy) * np.log(1.0 - p[:, 0])))
    if task == "multiclass":
        rows = np.arange(y.shape[0])
        return float(-np.mean(np.log(p[rows, y.astype(np.intp)])))
    raise DataError(f"unknown task {task!r}")


def derivatives(
    task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None
) -> DerivativeBatch:
    """Gradient and Hessian diagonal of the per-sample loss at F. p, when
    given, is link_apply(task, F) already computed by the caller."""
    F = _as_scores(F)
    y = np.asarray(y)
    if task == "regression":
        g = 2.0 * (F[:, 0] - y.astype(float))[:, None]
        h = np.full_like(g, 2.0)
    elif task == "binary":
        p = _sigmoid(F) if p is None else p
        g = p - y.astype(float)[:, None]
        h = p * (1.0 - p)
    elif task == "multiclass":
        p = _softmax(F) if p is None else p
        g = p - one_hot(y, F.shape[1])
        h = p * (1.0 - p)
    else:
        raise DataError(f"unknown task {task!r}")
    return DerivativeBatch(g=g, h=np.maximum(h, H_FLOOR))


def hessian_diag(task: str, F: np.ndarray) -> np.ndarray:
    """Hessian diagonal alone; unlike the gradient it never needs the target."""
    F = _as_scores(F)
    if task == "regression":
        return np.full_like(F, 2.0)
    p = link_apply(task, F)
    return np.maximum(p * (1.0 - p), H_FLOOR)
