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

from .data import TASKS
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
    # 1 / (1 + e^-F) where F >= 0 and e^F / (1 + e^F) elsewhere, both from
    # one e = exp(-|F|), so exp never overflows; minimum(F, -F) is -|F| that
    # keeps a NaN's bits, and a NaN takes the second form, as F < 0 would
    e = np.negative(F)
    np.exp(np.minimum(F, e, out=e), out=e)
    out = np.where(F >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _softmax(F: np.ndarray) -> np.ndarray:
    # the row max as a running max over columns: a max does not depend on
    # order, and this is several times faster than a reduction along rows
    # a few values long
    ez = F - functools.reduce(np.maximum, F.T)[:, None]
    np.exp(ez, out=ez)
    ez /= ez.sum(axis=1, keepdims=True)
    return ez


def _hessian(p: np.ndarray) -> np.ndarray:
    # (1 - p) * p with its floor, in one buffer
    h = 1.0 - p
    h *= p
    return np.maximum(h, H_FLOOR, out=h)


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


def _labels(task: str, y: np.ndarray, F: np.ndarray) -> np.ndarray:
    """y as the loss reads it: float targets, binary labels in [0, 1]
    (fractions too), or whole class indices in 0..J-1. One length compare
    and one min/max pass; a label the task cannot hold is a DataError."""
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    y = np.asarray(y)
    if y.shape != (F.shape[0],):
        raise DataError(f"y has shape {y.shape}, expected ({F.shape[0]},) to match the scores")
    if task == "regression":
        return y.astype(float, copy=False)
    top = 1 if task == "binary" else F.shape[1] - 1
    if y.size and not (y.min() >= 0 and y.max() <= top):  # NaN fails both
        raise DataError(f"{task} labels must lie in [0, {top}]; "
                        f"got values in [{y.min()}, {y.max()}]")
    if task == "binary":
        return y.astype(float, copy=False)
    yi = y.astype(np.intp, copy=False)
    if yi is not y and not np.array_equal(yi, y):
        raise DataError("multiclass labels must be whole class indices")
    return yi


def _class_entries(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as a flat array in its memory order (a copy only when a is neither
    C- nor F-contiguous) and the flat index of each row's class entry: one
    1-D gather, several times faster than a[rows, y]."""
    n, J = a.shape
    rows = np.arange(n)
    if a.flags.f_contiguous:
        return a.ravel(order="F"), y * n + rows
    return a.ravel(order="C"), rows * J + y


def loss_eval(task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None) -> float:
    """Mean loss over samples at raw scores F. p, when given, is
    link_apply(task, F) already computed by the caller, and is not changed.
    A label the task cannot hold is a DataError."""
    F = _as_scores(F)
    y = _labels(task, y, F)
    if task == "regression":
        r = y - F[:, 0]
        return float(np.mean(r * r))
    p = link_apply(task, F) if p is None else p
    if task == "binary":
        q = np.clip(p[:, 0], P_CLIP, 1.0 - P_CLIP)
        return float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))
    # each row's class probability, gathered before it is clipped
    q = np.take(*_class_entries(p, y))
    np.clip(q, P_CLIP, 1.0 - P_CLIP, out=q)
    return float(-np.mean(np.log(q, out=q)))


def derivatives(
    task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None
) -> DerivativeBatch:
    """Gradient and Hessian diagonal of the per-sample loss at F. p, when
    given, is link_apply(task, F) already computed by the caller. A label
    the task cannot hold is a DataError."""
    F = _as_scores(F)
    y = _labels(task, y, F)
    if task == "regression":
        g = 2.0 * (F[:, 0] - y)[:, None]
        return DerivativeBatch(g=g, h=np.full_like(g, 2.0))
    p = link_apply(task, F) if p is None else p
    if task == "binary":
        g = p - y[:, None]
    else:
        # p minus 1.0 at each row's class; the copy is C- or F-contiguous,
        # so its flat form is a view
        g = np.array(p, dtype=float, order="K")
        np.subtract.at(*_class_entries(g, y), 1.0)
    return DerivativeBatch(g=g, h=_hessian(p))


def hessian_diag(task: str, F: np.ndarray) -> np.ndarray:
    """Hessian diagonal alone; unlike the gradient it never needs the target."""
    F = _as_scores(F)
    if task == "regression":
        return np.full_like(F, 2.0)
    return _hessian(link_apply(task, F))
