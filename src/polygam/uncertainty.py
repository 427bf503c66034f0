"""Hessian-based standard errors and confidence bands for shape functions.

The fitted model is linear in its parameters (step values and per-bin
polynomial terms), so a diagonal Laplace approximation gives each parameter
the standard error 1/sqrt(sum_n h_n * basis(x_n)^2), with h the loss
Hessian at the final scores. The basis of a degree-0 term is the fine-bin
indicator; for degree d >= 1 it is the saturating binned transform raised to
d, which is nonzero for every sample at or above the bin. Parameters whose
accumulator is zero (empty bin) get an infinite standard error, and the flag
propagates into any interval that touches them. No training row lies outside
the observed range [x_min, x_max], so intervals there are infinite too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import bin_transform
from .losses import hessian_diag
from .model import ParameterStore, evaluate_shape, fine_code, predict

Z_95 = 1.96


def attach_se_accumulators(store: ParameterStore, X: np.ndarray) -> None:
    """Accumulate per-parameter curvature from the data and store it.

    Mutates store.se_fine / se_coarse in place. Masked (output, feature)
    pairs get None. Call after training (and any rollback) so the Hessian is
    taken at the final scores.
    """
    X = np.asarray(X, dtype=float)
    F = predict(store, X)
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
        col = X[:, k]
        fcodes = fine_code(fb, col)
        nc = fb.n_coarse_bins
        dmax = store.constraints.features[k].max_degree
        # xs[:, b-1] = x*_{kb}(x_n): the basis the degree-d parameters multiply
        xs = bin_transform(col, fb.coarse_edges)
        for i in range(J):
            if not mask[i, k]:
                continue
            hi = h[:, i]
            fine = np.bincount(fcodes, weights=hi, minlength=fb.n_fine_bins)
            coarse = np.zeros((nc, 3))
            for d in range(1, min(dmax, 3) + 1):
                coarse[:, d - 1] = hi @ xs ** (2 * d)
            store.se_fine[i][k] = fine
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
    if not store.has_uncertainty or store.se_fine[i][k] is None:
        raise ValueError(
            "no uncertainty accumulators stored for this output/feature; "
            "run attach_se_accumulators first"
        )
    # only degrees the feature actually has; padding columns are not parameters
    dmax = min(store.constraints.features[k].max_degree, 3)
    with np.errstate(divide="ignore"):
        fine = 1.0 / np.sqrt(store.se_fine[i][k])
        coarse = 1.0 / np.sqrt(store.se_coarse[i][k][:, :dmax])
    return UncertaintyTable(fine_se=fine, coarse_se=coarse)


def variance_pred(store: ParameterStore, i: int, k: int, x) -> np.ndarray | float:
    """Pointwise variance of the shape function under the diagonal Laplace
    approximation: exactly one degree-0 term is active at any x (its fine
    bin), while every coarse bin whose transform is nonzero contributes
    through degrees 1..D. Outside the observed range [x_min, x_max] the
    variance is infinite."""
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not store.has_uncertainty or store.se_fine[i][k] is None:
        out = np.zeros_like(xv)
        return float(out[0]) if scalar else out
    fb = store.layout[k]
    dmax = store.constraints.features[k].max_degree
    acc_fine = store.se_fine[i][k]
    acc_coarse = store.se_coarse[i][k]
    fcodes = fine_code(fb, xv)
    with np.errstate(divide="ignore"):
        var = np.where(acc_fine[fcodes] > 0.0, 1.0 / acc_fine[fcodes], np.inf)
        for b, xs in enumerate(bin_transform(xv, fb.coarse_edges).T):
            for d in range(1, min(dmax, 3) + 1):
                acc = acc_coarse[b, d - 1]
                w = xs ** (2 * d)
                # w == 0 below the bin: no contribution even when acc == 0
                term = np.where(w > 0.0, w / max(acc, 1e-300), 0.0)
                if acc <= 0.0:
                    term = np.where(w > 0.0, np.inf, 0.0)
                var = var + term
    var = np.where((xv < fb.x_min) | (xv > fb.x_max), np.inf, var)
    return float(var[0]) if scalar else var


def shape_ci(store: ParameterStore, i: int, k: int, x, z: float = Z_95):
    """Shape value with a pointwise z-interval: f, f - z*se, f + z*se."""
    f = evaluate_shape(store, i, k, x)
    var = variance_pred(store, i, k, x)
    se = np.sqrt(var)
    return f, f - z * se, f + z * se
