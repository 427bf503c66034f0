"""The stacked candidate scorer against per-scan scoring.

The reference scores each (feature, degree) scan with its own leaf-value and
gain calls, as separate arrays, and ranks every finite positive row of every
scan by (-gain, feature, degree, threshold, kind). The scorer under test lays
all scans of an output end to end and takes one first argmax; both must pick
the same candidate, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from polygam.booster import (
    SplitCandidate,
    TrainConfig,
    _apply_candidate,
    _best_for_output,
    _Candidates,
    _clamp,
    _FeatureWork,
    candidate_gain,
    leaf_value,
)
from polygam.data import SplitScheme, build_bin_layout
from polygam.losses import derivatives
from polygam.model import ConstraintSpec, FeatureConstraint, zero_init

from conftest import make_dataset


def reference_best(i, g, h, works, store, cfg):
    n = g.size
    l1, l2, min_leaf = cfg.l1, cfg.l2, cfg.min_data_in_leaf
    found = []

    def collect(k, d, kind, edges, n_left, gl, gr, gains, valid):
        for j in np.flatnonzero(valid & np.isfinite(gains) & (gains > 0.0)):
            thr = math.inf if kind == "global" else float(edges[j])
            key = (-float(gains[j]), k, d, thr, 0 if kind == "split" else 1)
            if kind == "global":
                cand = SplitCandidate(i, k, d, "global", None, float(gl[j]), None,
                                      float(gains[j]), n, 0)
            else:
                cand = SplitCandidate(i, k, d, "split", thr, float(gl[j]), float(gr[j]),
                                      float(gains[j]), int(n_left[j]), n - int(n_left[j]))
            found.append((key, cand))

    for k, wk in enumerate(works):
        if not store.constraints.allow_mask[i, k]:
            continue
        fc, fb = wk.fc, wk.fb
        constrained = bool(fc.monotone or fc.curvature)
        coeffs = store.params[i][k].poly_coeffs
        if 0 in wk.split_degrees and fb.fine_edges.size:
            cg = np.cumsum(np.bincount(wk.fcodes, weights=g, minlength=fb.n_fine_bins))
            ch = np.cumsum(np.bincount(wk.fcodes, weights=h, minlength=fb.n_fine_bins))
            sgl, shl = cg[:-1], ch[:-1]
            sgr, shr = cg[-1] - sgl, ch[-1] - shl
            nl = wk.n_left_fine
            valid = (nl >= min_leaf) & (n - nl >= min_leaf)
            gl, gr = leaf_value(sgl, shl, l1, l2), leaf_value(sgr, shr, l1, l2)
            if fc.monotone:
                bad = valid & (fc.monotone * (gr - gl) < 0.0)
                pooled = leaf_value(sgl + sgr, shl + shr, l1, l2)
                gl, gr = np.where(bad, pooled, gl), np.where(bad, pooled, gr)
            gains = candidate_gain(gl, sgl, shl, gr, sgr, shr)
            collect(k, 0, "split", fb.fine_edges, nl, gl, gr, gains, valid)
        high = [d for d in wk.split_degrees if d >= 1]
        if high and fb.coarse_edges.size:
            sgl_all, sgr_all, shl_all, shr_all = wk.split_sums(g, h, False)
            nl = wk.n_left_coarse
            valid = (nl >= min_leaf) & (n - nl >= min_leaf)
            for d in high:
                sgl, sgr, shl, shr = (a[d - high[0]] for a in (sgl_all, sgr_all, shl_all, shr_all))
                gl, gr = leaf_value(sgl, shl, l1, l2), leaf_value(sgr, shr, l1, l2)
                J = np.flatnonzero(valid)
                if constrained and J.size:
                    gl[J], gr[J] = _clamp(wk, coeffs, cfg, d, J, np.stack([gl[J], gr[J]]),
                                          (sgl[J], shl[J], sgr[J], shr[J]))
                gains = candidate_gain(gl, sgl, shl, gr, sgr, shr)
                collect(k, d, "split", fb.coarse_edges, nl, gl, gr, gains, valid)
        for d in wk.global_degrees:
            sg = g.sum() if d == 0 else np.einsum("n,n->", g, wk.rpow[d])
            sh = h.sum() if d == 0 else np.einsum("n,n->", h, wk.rpow[2 * d])
            gamma = np.array([[leaf_value(sg, sh, l1, l2)]])
            if constrained and d >= 1:
                gamma = _clamp(wk, coeffs, cfg, d, None, gamma)
            gain = candidate_gain(gamma[0], sg, sh, 0.0, 0.0, 0.0)
            collect(k, d, "global", None, None, gamma[0], None, gain, np.array([True]))
    return min(found, key=lambda kc: kc[0])[1] if found else None


@st.composite
def feature_constraints(draw):
    D = draw(st.integers(0, 3))
    S = draw(st.integers(-1, D - 1)) if D else -1
    m = draw(st.sampled_from([-1, 0, 1]))
    c = draw(st.sampled_from([-1, 0, 1])) if S >= 0 and D >= 2 else 0
    return FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c)


@st.composite
def scoring_cases(draw):
    multiclass = draw(st.booleans())
    n_features = draw(st.integers(1, 3))
    fcs = [draw(feature_constraints()) for _ in range(n_features)]
    # a duplicated column with the same constraint ties with its original
    duplicate = n_features >= 2 and draw(st.booleans())
    if duplicate:
        fcs[1] = fcs[0]
    n_outputs = 3 if multiclass else 1
    pair = st.sampled_from([True, True, True, False])  # mostly allowed
    mask = np.array(draw(st.lists(pair, min_size=n_outputs * n_features,
                                  max_size=n_outputs * n_features))).reshape(n_outputs, -1)
    min_leaf = draw(st.sampled_from([1, 5, 20]))
    seed = draw(st.integers(0, 2**16))
    return multiclass, fcs, duplicate, mask, min_leaf, seed


@given(scoring_cases())
def test_stacked_scorer_matches_per_scan_reference(case):
    multiclass, fcs, duplicate, mask, min_leaf, seed = case
    rng = np.random.default_rng(seed)
    n = 150
    X = rng.uniform(-1.0, 2.0, size=(n, len(fcs)))
    if duplicate:
        X[:, 1] = X[:, 0]
    f = np.sin(3.0 * X[:, 0]) + X[:, -1] ** 3
    if multiclass:
        y = np.digitize(f + rng.normal(scale=0.5, size=n), np.quantile(f, [0.33, 0.66]))
        ds = make_dataset(X, y, task="multiclass")
    else:
        ds = make_dataset(X, f + rng.normal(scale=0.3, size=n))
    layout = build_bin_layout(ds, SplitScheme(24, 5))
    spec = ConstraintSpec(features=fcs, allow_mask=mask)
    store = zero_init(layout, ds.task, ds.n_outputs, ds.feature_names, spec)
    cfg = TrainConfig(learning_rate=0.3, min_data_in_leaf=min_leaf)
    works = [_FeatureWork(X[:, k], layout[k], fc) for k, fc in enumerate(fcs)]
    cands = [_Candidates(works, mask[i], min_leaf, n) for i in range(ds.n_outputs)]
    F = np.zeros((n, ds.n_outputs))
    for it in range(6):
        batch = derivatives(ds.task, ds.y, F)
        for i in range(ds.n_outputs):
            g, h = batch.g[:, i], batch.h[:, i]
            got = _best_for_output(i, cands[i], g, h, store, cfg, not multiclass)
            want = reference_best(i, g, h, works, store, cfg)
            assert got == want, (it, i)
            if it == 0 and duplicate and mask[i, 0] and got is not None:
                # the zero state gives both copies identical gains: the lower wins
                assert got.feature != 1
            if got is not None:
                _apply_candidate(store, got, cfg.learning_rate, works, F, None, None)
