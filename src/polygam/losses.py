"""Losses, link functions, and their first/second derivatives.

All derivative formulas are with respect to the raw score F, per output:
regression uses squared error on the identity link, binary uses cross-entropy
through a sigmoid, multiclass uses cross-entropy through a softmax with a
diagonal Hessian approximation.

Each job has one row kernel that writes rows r (a slice) of whole arrays
into buffers the caller owns: `link_rows`, `derivative_rows` and
`loss_rows`, whose terms `loss_mean` averages. The trainer runs them over
ranges of rows on its lanes; `link_apply`, `derivatives` and `loss_eval`
run them once over every row. The kernels read labels in the form
`checked_labels` returns, checked once.
"""

from __future__ import annotations

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


def checked_labels(task: str, y: np.ndarray, n: int, n_outputs: int) -> np.ndarray:
    """y as the row kernels read it: float targets; for binary, the rows y
    and 1 - y of labels in [0, 1] (fractions too); whole class indices in
    0..n_outputs-1. One length compare and one min/max pass; a label the
    task cannot hold is a DataError."""
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    y = np.asarray(y)
    if y.shape != (n,):
        raise DataError(f"y has shape {y.shape}, expected ({n},) to match the scores")
    if task == "regression":
        return y.astype(float, copy=False)
    top = 1 if task == "binary" else n_outputs - 1
    if y.size and not (y.min() >= 0 and y.max() <= top):  # NaN fails both
        raise DataError(f"{task} labels must lie in [0, {top}]; "
                        f"got values in [{y.min()}, {y.max()}]")
    if task == "binary":
        yf = y.astype(float, copy=False)
        return np.stack((yf, 1.0 - yf))
    yi = y.astype(np.intp, copy=False)
    if yi is not y and not np.array_equal(yi, y):
        raise DataError("multiclass labels must be whole class indices")
    return yi


def _class_entries(a: np.ndarray, y: np.ndarray, r: slice) -> tuple[np.ndarray, np.ndarray]:
    """a as a flat array in its memory order (a copy only when a is neither
    C- nor F-contiguous) and the flat index of the class entry of each row
    of r, y being those rows' classes: one 1-D gather, several times faster
    than a[rows, y]."""
    n, J = a.shape
    rows = np.arange(r.start, r.stop)
    if a.flags.f_contiguous:
        return a.ravel(order="F"), y * n + rows
    return a.ravel(order="C"), rows * J + y


def _hessian(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    # (1 - p) * p with its floor, in out
    np.subtract(1.0, p, out=out)
    out *= p
    return np.maximum(out, H_FLOOR, out=out)


def link_rows(task: str, F: np.ndarray, p: np.ndarray, tmp: np.ndarray, r: slice) -> None:
    """p[r] = link(F[r]) for binary and multiclass scores; tmp is a 1-D
    array as long as F, whose rows r are overwritten."""
    f, o, e = F[r], p[r], tmp[r]
    if task == "binary":
        # 1 / (1 + e^-F) where F >= 0 and e^F / (1 + e^F) elsewhere, both
        # from one e = exp(-|F|), so exp never overflows; minimum(F, -F) is
        # -|F| that keeps a NaN's bits, and a NaN takes the second form, as
        # F < 0 would
        for fj, oj in zip(f.T, o.T):
            np.negative(fj, out=e)
            np.exp(np.minimum(fj, e, out=e), out=e)
            np.copyto(oj, e)
            np.copyto(oj, 1.0, where=fj >= 0)
            e += 1.0
            oj /= e
        return
    # the row max as a running max over columns: a max does not depend on
    # order, and this is several times faster than a reduction along rows
    # a few values long
    np.copyto(e, f[:, 0])
    for j in range(1, f.shape[1]):
        np.maximum(e, f[:, j], out=e)
    np.subtract(f, e[:, None], out=o)
    np.exp(o, out=o)
    np.sum(o, axis=1, out=e)
    o /= e[:, None]


def derivative_rows(task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None,
                    G: np.ndarray, r: slice) -> None:
    """g and h of rows r, by output, into G[:J, r] and G[J:, r]; G is
    (2J, m), C-contiguous, m at least the row count. p is the link of F
    (unused for regression), y as `checked_labels` returns it."""
    J = G.shape[0] // 2
    g, h = G[:J, r], G[J:, r]
    if task == "regression":
        np.subtract(F[r, 0], y[r], out=g[0])
        g *= 2.0
        h.fill(2.0)
        return
    pt = p[r].T
    if task == "binary":
        np.subtract(pt[0], y[0, r], out=g[0])
    else:
        # p minus 1.0 at each row's class, through G's flat form
        np.copyto(g, pt)
        np.subtract.at(G.reshape(-1), y[r] * G.shape[1] + np.arange(r.start, r.stop), 1.0)
    _hessian(pt, h)


def loss_rows(task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None, out: np.ndarray,
              tmp: np.ndarray, r: slice) -> None:
    """Each row's loss term into out[r], as `loss_mean` reads them; out and
    tmp are 1-D arrays as long as F, and tmp's rows r are overwritten. p is
    the link of F (unused for regression), y as `checked_labels` returns it."""
    t = out[r]
    if task == "regression":
        np.subtract(y[r], F[r, 0], out=t)
        t *= t
    elif task == "binary":
        # y log q + (1 - y) log(1 - q), q the clipped probability
        q = np.clip(p[r, 0], P_CLIP, 1.0 - P_CLIP, out=tmp[r])
        np.log(q, out=t)
        t *= y[0, r]
        np.subtract(1.0, q, out=q)
        np.log(q, out=q)
        q *= y[1, r]
        t += q
    else:
        # each row's class probability, gathered before it is clipped
        np.take(*_class_entries(p, y[r], r), out=t, mode="clip")
        np.clip(t, P_CLIP, 1.0 - P_CLIP, out=t)
        np.log(t, out=t)


def loss_mean(task: str, terms: np.ndarray) -> float:
    """The mean loss over the rows whose `loss_rows` terms are given."""
    m = np.mean(terms)
    return float(m if task == "regression" else -m)


def link_apply(task: str, F: np.ndarray) -> np.ndarray:
    """Map raw scores to predictions: identity, sigmoid, or row-softmax."""
    F = _as_scores(F)
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    if task == "regression":
        return F.copy()
    p = np.empty_like(F)
    link_rows(task, F, p, np.empty(F.shape[0]), slice(0, F.shape[0]))
    return p


def loss_eval(task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None) -> float:
    """Mean loss over samples at raw scores F. p, when given, is
    link_apply(task, F) already computed by the caller, and is not changed.
    A label the task cannot hold is a DataError."""
    F = _as_scores(F)
    n = F.shape[0]
    y = checked_labels(task, y, n, F.shape[1])
    if p is None and task != "regression":
        p = link_apply(task, F)
    terms = np.empty((2, n))
    loss_rows(task, y, F, p, terms[0], terms[1], slice(0, n))
    return loss_mean(task, terms[0])


def derivatives(
    task: str, y: np.ndarray, F: np.ndarray, p: np.ndarray | None = None
) -> DerivativeBatch:
    """Gradient and Hessian diagonal of the per-sample loss at F. p, when
    given, is link_apply(task, F) already computed by the caller. A label
    the task cannot hold is a DataError."""
    F = _as_scores(F)
    n, J = F.shape
    y = checked_labels(task, y, n, J)
    if p is None and task != "regression":
        p = link_apply(task, F)
    G = np.empty((2 * J, n))
    derivative_rows(task, y, F, p, G, slice(0, n))
    return DerivativeBatch(g=G[:J].T, h=G[J:].T)


def hessian_diag(task: str, F: np.ndarray) -> np.ndarray:
    """Hessian diagonal alone; unlike the gradient it never needs the target."""
    F = _as_scores(F)
    if task == "regression":
        return np.full_like(F, 2.0)
    p = link_apply(task, F)
    return _hessian(p, np.empty_like(p))
