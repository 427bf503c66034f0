"""Hessian-based standard errors and confidence bands for shape functions.

The fitted model is linear in its parameters (step values and per-bin
polynomial terms), so a diagonal Laplace approximation gives each parameter
the standard error 1/sqrt(sum_n h_n * basis(x_n)^2), with h the loss
Hessian at the final scores. The basis of a degree-0 term is the fine-bin
indicator; for degree d >= 1 it is the saturating binned transform raised to
d. That transform is sparse: a value x in coarse piece p has basis value s
in piece p (raw x in piece 0, the offset from the piece's lower edge in
later pieces), every piece below p is saturated at its upper edge value,
and every piece above p is 0; the last piece never saturates. So each
coarse accumulator is the in-piece sum of h * s^(2d) plus edge^(2d) times
the h-mass of the later pieces, and a variance at x is its own piece's
term plus a prefix sum over the pieces below it.

Parameters whose accumulator is zero (empty bin) get an infinite standard
error, and the flag propagates into any interval that touches them. No
training row lies outside the observed range [x_min, x_max], so intervals
there are infinite too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import FeatureBins, real_values
from .errors import ConfigError
from .losses import hessian_diag
from .model import ParameterStore, check_pair, evaluate_shape, fine_code, locate, predict

Z_95 = 1.96


def bin_transform(fb: FeatureBins, x: np.ndarray, fcode=None):
    """Fine code, coarse piece and in-piece basis value s of each value:
    raw x in piece 0 and locate's offset t in later pieces. Fine codes found
    earlier can be passed in; they are looked up when not."""
    if fcode is None:
        fcode = fine_code(fb, x)
    piece, t = locate(fb, x, fcode)
    return fcode, piece, np.where(piece == 0, x, t)


def attach_se_accumulators(store: ParameterStore, X: np.ndarray) -> None:
    """Accumulate per-parameter curvature from the data and store it.

    Mutates store.se_fine / se_coarse in place. Masked (output, feature)
    pairs get None. Call after training (and any rollback) so the Hessian is
    taken at the final scores. X is refused as `predict` refuses it: it is
    read as float64 here (`data.real_values`), and `predict` checks its
    shape and scans it for NaN and inf once.
    """
    X = real_values(X, "X")
    F, codes = predict(store, X, return_codes=True)
    h = hessian_diag(store.task, F)  # (N, J)
    mask = store.constraints.allow_mask
    J = store.n_outputs
    K = len(store.feature_names)
    store.se_fine = [[None] * K for _ in range(J)]
    store.se_coarse = [[None] * K for _ in range(J)]
    for k in range(K):
        if not mask[:, k].any():
            continue
        fb = store.layout[k]
        nc = fb.n_coarse_bins
        degrees = range(1, min(store.constraints.features[k].max_degree, 3) + 1)
        fcode, piece, s = bin_transform(fb, X[:, k], codes[k])
        w = [s ** (2 * d) for d in degrees]
        for i in range(J):
            if not mask[i, k]:
                continue
            hi = h[:, i]
            store.se_fine[i][k] = np.bincount(fcode, weights=hi, minlength=fb.n_fine_bins)
            # h-mass of the pieces above each coarse edge, saturated there
            above = np.cumsum(np.bincount(piece, weights=hi, minlength=nc)[:0:-1])[::-1]
            coarse = np.zeros((nc, 3))
            for d in degrees:
                coarse[:, d - 1] = np.bincount(piece, weights=hi * w[d - 1], minlength=nc)
                coarse[:-1, d - 1] += fb.coarse_edges ** (2 * d) * above
            store.se_coarse[i][k] = coarse


@dataclass
class UncertaintyTable:
    """Per-parameter standard errors for one (output, feature) pair.

    fine_se[b] covers the degree-0 step of fine bin b; coarse_se[b, d-1]
    covers the degree-d term of coarse bin b. Entries are inf where the
    accumulator is zero.
    """

    fine_se: np.ndarray
    coarse_se: np.ndarray

    @property
    def any_infinite(self) -> bool:
        return bool(np.isinf(self.fine_se).any() or np.isinf(self.coarse_se).any())


def param_se(store: ParameterStore, i: int, k: int) -> UncertaintyTable:
    check_pair(store, i, k)
    if not store.has_uncertainty or store.se_fine[i][k] is None:
        raise ConfigError(
            "no uncertainty accumulators stored for this output/feature; "
            "run attach_se_accumulators first"
        )
    # only degrees the feature actually has; padding columns are not parameters
    dmax = min(store.constraints.features[k].max_degree, 3)
    with np.errstate(divide="ignore"):
        fine = 1.0 / np.sqrt(store.se_fine[i][k])
        coarse = 1.0 / np.sqrt(store.se_coarse[i][k][:, :dmax])
    return UncertaintyTable(fine_se=fine, coarse_se=coarse)


def _terms(w, acc: np.ndarray) -> np.ndarray:
    """w / acc, inf where acc <= 0, and 0 wherever w == 0 (a basis value of
    zero adds nothing even when its accumulator is empty)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(acc > 0.0, w / np.maximum(acc, 1e-300), np.inf)
    return np.where(w > 0.0, term, 0.0)


def variance_pred(store: ParameterStore, i: int, k: int, x) -> np.ndarray | float:
    """Pointwise variance of the shape function under the diagonal Laplace
    approximation: exactly one degree-0 term is active at any x (its fine
    bin); degrees 1..D contribute from x's own coarse piece and from every
    piece below it, saturated at its upper edge. Outside the observed range
    [x_min, x_max] the variance is infinite. A model without accumulators
    is a ConfigError; a pair masked out of an SE-attached model, whose
    shape is exactly 0, has variance 0."""
    check_pair(store, i, k)
    if not store.has_uncertainty:
        raise ConfigError("model stores no uncertainty accumulators; "
                          "run attach_se_accumulators first")
    scalar = np.isscalar(x)
    xv = np.atleast_1d(real_values(x, "x"))
    if store.se_fine[i][k] is None:
        out = np.zeros_like(xv)
        return float(out[0]) if scalar else out
    fb = store.layout[k]
    degrees = range(1, min(store.constraints.features[k].max_degree, 3) + 1)
    acc = store.se_coarse[i][k]
    fcode, piece, s = bin_transform(fb, xv)
    var = _terms(1.0, store.se_fine[i][k][fcode])
    below = np.zeros(fb.n_coarse_bins)
    for d in degrees:
        var = var + _terms(s ** (2 * d), acc[piece, d - 1])
        below[1:] += _terms(fb.coarse_edges ** (2 * d), acc[:-1, d - 1])
    var = var + np.cumsum(below)[piece]
    # not a range test on x < x_min | x > x_max: NaN is outside too
    var[~((xv >= fb.x_min) & (xv <= fb.x_max))] = np.inf
    return float(var[0]) if scalar else var


def shape_ci(store: ParameterStore, i: int, k: int, x, z: float = Z_95):
    """Shape value with a pointwise z-interval: f, f - z*se, f + z*se; z = 0
    gives lo = hi = f everywhere, also outside the observed range, where se
    is infinite. A z that is not a finite number >= 0 raises ConfigError."""
    # written so that NaN fails it
    if not (isinstance(z, numbers.Real) and 0.0 <= z < math.inf):
        raise ConfigError(f"z must be a finite number >= 0, got {z!r}")
    f = evaluate_shape(store, i, k, x)
    half = z * np.sqrt(variance_pred(store, i, k, x)) if z else 0.0  # 0*inf is NaN
    return f, f - half, f + half
