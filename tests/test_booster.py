"""Training loop: leaf values, gains, split scans, replay, stopping, masking."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polygam
from polygam import booster, lanes
from polygam.booster import (
    TrainConfig,
    _FeatureWork,
    _Scan,
    candidate_gain,
    leaf_value,
    replay,
    train,
    write_log,
)
from polygam.data import BinLayout, FeatureBins, SplitScheme, build_bin_layout
from polygam.errors import ConfigError, DataError, NumericError
from polygam.losses import derivatives, link_apply, loss_eval
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    dumps_model,
    evaluate_shape,
    fine_code,
    load_model,
    locate,
    predict,
)

from conftest import layout_for, make_dataset, scan_matrix, scanned
from oracles import brute_force_stump, param_gradients


# ---------------------------------------------------------------------------
# leaf values and gains


def test_leaf_value_unpenalized():
    assert leaf_value(-6.0, 4.0) == 1.5


def test_leaf_value_zero_gradient():
    assert leaf_value(0.0, 7.0) == 0.0


def test_leaf_value_with_penalties():
    assert leaf_value(-6.0, 4.0, l1=1.0, l2=1.0) == 1.0


def test_leaf_value_inside_l1_dead_zone():
    assert leaf_value(0.5, 3.0, l1=1.0) == 0.0
    assert leaf_value(-0.5, 3.0, l1=1.0) == 0.0


def test_leaf_value_hessian_floor():
    v = leaf_value(-1.0, 0.0)
    assert np.isfinite(v) and v > 0


def test_leaf_value_vectorized():
    sg = np.array([-6.0, 0.0, 6.0])
    sh = np.array([4.0, 4.0, 4.0])
    assert leaf_value(sg, sh).tolist() == [1.5, 0.0, -1.5]


def test_gain_single_side_quadratic_identity():
    g = leaf_value(-6.0, 4.0)
    gain = candidate_gain(g, -6.0, 4.0, 0.0, 0.0, 0.0)
    assert gain == 4.5
    assert gain == (-6.0) ** 2 / (2.0 * 4.0)


def test_gain_zero_for_zero_gamma():
    assert candidate_gain(0.0, -6.0, 4.0, 0.0, 0.0, 0.0) == 0.0


def test_split_beats_pooled_global_on_step_target():
    x = np.arange(10.0)
    y = np.where(x < 5, -1.0, 1.0)
    g = 2.0 * (0.0 - y)
    h = np.full(10, 2.0)
    left = x < 4.5
    sgl, shl = g[left].sum(), h[left].sum()
    sgr, shr = g[~left].sum(), h[~left].sum()
    split_gain = candidate_gain(
        leaf_value(sgl, shl), sgl, shl, leaf_value(sgr, shr), sgr, shr
    )
    pooled = leaf_value(g.sum(), h.sum())
    global_gain = candidate_gain(pooled, g.sum(), h.sum(), 0.0, 0.0, 0.0)
    assert split_gain > global_gain


def test_param_gradients_degree0_plain_sums():
    x = np.array([1.0, 2.0, 3.0])
    g = np.array([1.0, -2.0, 4.0])
    h = np.array([0.5, 0.5, 1.0])
    (sgl, sgr), (shl, shr) = param_gradients(g, h, x, 2.5, 0)
    assert (sgl, sgr) == (-1.0, 4.0)
    assert (shl, shr) == (1.0, 1.0)


def test_param_gradients_degree1_example():
    (sg, sh) = param_gradients(
        np.array([-2.0, -4.0]), np.array([2.0, 2.0]), np.array([1.0, 3.0]), 2.0, 1
    )
    assert sg == (2.0, -4.0)
    assert sh == (2.0, 2.0)


def test_param_gradients_zero_gradient():
    x = np.linspace(0, 1, 5)
    (sg, _), _ = param_gradients(np.zeros(5), np.ones(5), x, 0.5, 2)
    assert sg == 0.0


# ---------------------------------------------------------------------------
# vectorized split scans vs direct reference


@pytest.mark.parametrize("S", [-1, 0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_split_sums_match_direct_reference(seed, S):
    rng = np.random.default_rng(seed)
    n = 600
    x = np.sort(rng.normal(size=n)) if seed % 2 else rng.uniform(-3, 5, n)
    g = rng.normal(size=n)
    h = rng.uniform(0.1, 2.0, size=n)
    ds = make_dataset(x, np.zeros(n))
    layout = build_bin_layout(ds, SplitScheme(64, 12))
    fc = FeatureConstraint(smoothness=S, max_degree=3)
    wk = _FeatureWork(x, layout[0], fc)
    sgl, sgr, shl, shr = scanned(wk, g, h)[:, wk.n_fine :]
    edges = layout[0].coarse_edges
    # global terms: one row each, u = x_min, every training row on the left
    for d in range(S + 1):
        (r,) = np.flatnonzero(wk.row_degree == d)
        assert wk.row_u[r] == x.min()
        for got, w, p in ((sgl[r], g, d), (shl[r], h, 2 * d)):
            terms = w * (x - x.min()) ** p
            assert abs(got - terms.sum()) <= 1e-12 * np.abs(terms).sum()
        assert sgr[r] == 0.0 and shr[r] == 0.0
    for d in range(max(S + 1, 1), 4):
        rows = np.flatnonzero(wk.row_degree == d)
        assert wk.row_u[rows].tolist() == edges.tolist()
        for r, u in zip(rows, edges.tolist()):
            (rgl, rgr), (rhl, rhr) = param_gradients(g, h, x, u, d)
            for got, want in (
                (sgl[r], rgl),
                (sgr[r], rgr),
                (shl[r], rhl),
                (shr[r], rhr),
            ):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_split_sums_stable_when_one_side_is_tiny():
    # single sample beyond the last threshold: its side sums must come out
    # at full relative precision, not as a difference of two large totals
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.uniform(0, 1, 500), [50.0]])
    g = np.concatenate([rng.normal(size=500), [1e-6]])
    h = np.ones(501)
    ds = make_dataset(x, np.zeros(501))
    layout = build_bin_layout(ds, SplitScheme(64, 12))
    fc = FeatureConstraint(smoothness=-1, max_degree=3)
    wk = _FeatureWork(x, layout[0], fc)
    _, sgr, _, shr = scanned(wk, g, h)[:, wk.n_fine :]
    u = layout[0].coarse_edges[-1]
    d = 3
    r = np.flatnonzero(wk.row_degree == d)[-1]
    assert wk.row_u[r] == u
    (_, rgr), (_, rhr) = param_gradients(g, h, x, u, d)
    assert sgr[r] == pytest.approx(rgr, rel=1e-12)
    assert shr[r] == pytest.approx(rhr, rel=1e-12)


@st.composite
def layout_cases(draw):
    n = draw(st.integers(1, 5000))
    shape = draw(st.sampled_from(["tied", "skewed", "normal"]))
    one_piece = draw(st.booleans())
    return n, shape, one_piece, draw(st.integers(0, 2**16))


@given(layout_cases())
@example((5000, "tied", False, 3))
def test_blocks_are_sized_to_the_largest_piece(case):
    """Every piece of c rows takes ceil(c / size) blocks of size >= 32
    slots and pads fewer than size <= max(s, 32) of them, s = ceil(n /
    (4 * pieces)). Above the floor, the largest piece pads fewer slots than
    it has blocks. Each row sits in one slot; the rest hold row n."""
    n, shape, one_piece, seed = case
    rng = np.random.default_rng(seed)
    x = {"tied": lambda: rng.integers(0, 40, n) * 0.25,
         "skewed": lambda: rng.lognormal(0.0, 2.0, n),
         "normal": lambda: rng.normal(size=n)}[shape]()
    fb = build_bin_layout(make_dataset(x, np.zeros(n)), SplitScheme(256, 1 if one_piece else 20))[0]
    wk = _FeatureWork(x, fb, FeatureConstraint())
    counts = np.bincount(locate(fb, x, fine_code(fb, x))[0], minlength=fb.n_coarse_bins)
    n_blocks, size = wk.slot_row.shape
    s = -(-n // (4 * counts.size))
    assert 32 <= size <= max(s, 32)
    assert wk.nonempty.tolist() == np.flatnonzero(counts).tolist()
    c = counts[wk.nonempty]
    blocks = np.diff(np.append(wk.block_start, n_blocks))
    assert blocks.tolist() == (-(-c // size)).tolist()
    pad = blocks * size - c
    assert (pad < size).all()
    if size > 32:
        largest = np.argmax(c)
        assert pad[largest] < blocks[largest]
    rows = wk.slot_row.ravel()
    assert np.sort(rows[rows < n]).tolist() == list(range(n))
    assert (rows == n).sum() == pad.sum()


@pytest.mark.parametrize("n", [14000, 140000])
def test_uniform_rows_fill_their_blocks(n):
    # 20 pieces of n / 20 rows: blocks of n / 80 rows would leave each
    # piece a few rows in a fifth, padded block (1.225 n slots)
    x = np.random.default_rng(n).uniform(size=n)
    fb = build_bin_layout(make_dataset(x, np.zeros(n)), SplitScheme())[0]
    assert _FeatureWork(x, fb, FeatureConstraint()).slot_row.size <= 1.02 * n


def bincount_moments(piece, t, w, max_m, n_pieces):
    """Oracle: per-piece sums of w * t^m, one bincount over all rows per m."""
    tp, out = np.ones_like(t), []
    for _ in range(max_m + 1):
        out.append(np.bincount(piece, weights=w * tp, minlength=n_pieces))
        tp = tp * t
    return np.stack(out, axis=1)


@st.composite
def moment_cases(draw):
    D = draw(st.integers(1, 3))
    S = draw(st.integers(-1, D - 1))
    n = draw(st.integers(1, 3000))  # from about 300 rows, blocks hold over 32
    ties = draw(st.booleans())  # 40 levels, so pieces hold tied values
    one_piece = draw(st.booleans())
    outside = draw(st.booleans())  # rows only beyond the layout's data: middle pieces empty
    nan_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    seed = draw(st.integers(0, 2**16))
    return FeatureConstraint(smoothness=S, max_degree=D), n, ties, one_piece, outside, nan_row, seed


@given(moment_cases())
@example((FeatureConstraint(smoothness=-1, max_degree=3), 3000, True, False, False, 1234, 5))
def test_block_moments_match_bincount_oracle(case):
    fc, n, ties, one_piece, outside, nan_row, seed = case
    rng = np.random.default_rng(seed)
    draw = (lambda m: rng.integers(0, 40, m) * 0.25) if ties else (lambda m: rng.normal(size=m))
    ref = draw(300)
    layout = build_bin_layout(make_dataset(ref, np.zeros(ref.size)),
                              SplitScheme(64, 1 if one_piece else 8))
    fb = layout[0]
    x = draw(n)
    if outside:
        x = np.where(rng.random(n) < 0.5, ref.min() - 1.0 - rng.random(n),
                     ref.max() + 1.0 + rng.random(n))
    w = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    if nan_row is not None:
        w[nan_row] = np.nan
    wk = _FeatureWork(x, fb, fc)
    assert wk.max_split_deg == fc.max_degree
    piece, t = locate(fb, x, fine_code(fb, x))
    n_pieces = fb.n_coarse_bins
    assert (n_pieces == 1) == one_piece
    empty = np.bincount(piece, minlength=n_pieces) == 0
    if outside and n_pieces > 2:
        assert empty.any()
    clean = np.ones(n_pieces, dtype=bool)
    if nan_row is not None:
        clean[piece[nan_row]] = False
    # w as both g and h: g's moments run to D, h's to 2D
    _Scan([wk])(scan_matrix(w, w))
    for max_m, got in ((fc.max_degree, wk.gmom[0]), (2 * fc.max_degree, wk.hmom[0])):
        want = bincount_moments(piece, t, w, max_m, n_pieces)
        bound = 1e-12 * bincount_moments(piece, np.abs(t), np.abs(w), max_m, n_pieces)
        assert np.isnan(got[~clean]).all()
        assert np.isfinite(got[clean]).all()
        assert (np.abs(got - want)[clean] <= bound[clean]).all()
        assert (got[empty] == 0.0).all()


@st.composite
def scan_cases(draw):
    J = draw(st.sampled_from([1, 4]))
    D = draw(st.integers(0, 3))
    S = draw(st.integers(-1, D - 1)) if D else -1
    outputs = draw(st.sampled_from([list(range(J)), [J - 1], [0, J - 1]] if J > 1
                                   else [[0]]))
    n = draw(st.integers(1, 3000))  # from about 300 rows, blocks hold over 32
    ties = draw(st.booleans())  # 40 levels, so pieces hold tied values
    outside = draw(st.booleans())  # rows only beyond the layout's data: empty bins and pieces
    nan_at = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 1), st.integers(0, 2 * J - 1))))
    seed = draw(st.integers(0, 2**16))
    return J, FeatureConstraint(smoothness=S, max_degree=D), outputs, n, ties, outside, nan_at, seed


@given(scan_cases())
def test_scan_matches_per_output_oracles(case):
    """One scan of a feature against per-output oracles: bincount moments and
    bincount fine sums of each allowed output's g and h, within
    1e-12 * sum|w * t^m|. A NaN weight stays in its own piece and fine bin
    of its own output; an output's sums do not depend on which other
    outputs the feature serves; a kept h side equals a fresh computation."""
    J, fc, outputs, n, ties, outside, nan_at, seed = case
    rng = np.random.default_rng(seed)
    draw = (lambda m: rng.integers(0, 40, m) * 0.25) if ties else (lambda m: rng.normal(size=m))
    ref = draw(300)
    fb = build_bin_layout(make_dataset(ref, np.zeros(300)), SplitScheme(64, 8))[0]
    x = draw(n)
    if outside:
        x = np.where(rng.random(n) < 0.5, ref.min() - 1.0 - rng.random(n),
                     ref.max() + 1.0 + rng.random(n))
    g = rng.normal(size=(n, J)) * 10.0 ** rng.uniform(-3, 3, size=(n, J))
    h = rng.uniform(0.1, 2.0, size=(n, J))
    if nan_at is not None:
        (g if nan_at[1] < J else h)[nan_at[0], nan_at[1] % J] = np.nan
    outputs = np.array(outputs)
    wk = _FeatureWork(x, fb, fc, outputs)
    GH = scan_matrix(g, h)
    fcode = fine_code(fb, x)
    piece, t = locate(fb, x, fcode)
    nf, P, D = fb.n_fine_bins, fb.n_coarse_bins, fc.max_degree
    if outside:
        assert (np.bincount(fcode, minlength=nf) == 0).any()
    _Scan([wk])(GH)
    for out in outputs:
        for side, w in enumerate((g[:, out], h[:, out])):
            bad = ~np.isfinite(w)
            want = np.bincount(fcode, weights=w, minlength=nf)
            bound = 1e-12 * np.bincount(fcode, weights=np.abs(w), minlength=nf)
            got = wk.bins[out, side]
            dirty = np.isin(np.arange(nf), fcode[bad])
            if wk.n_fine:  # only a fine scan sums the fine bins
                assert np.isnan(got[dirty]).all() and np.isfinite(got[~dirty]).all()
                assert (np.abs(got - want)[~dirty] <= bound[~dirty]).all()
                assert (got[want == 0.0] == 0.0).all()  # empty bins are exactly 0
            if wk.n_fine and not bad.any():
                # left sums at every fine threshold, and right = total - left
                left, tol = np.cumsum(want)[:-1], 1e-12 * np.abs(w).sum()
                assert (np.abs(wk.sums[out, 2 * side, : wk.n_fine] - left) <= tol).all()
                right = wk.sums[out, 2 * side + 1, : wk.n_fine]
                assert (np.abs(right - (want.sum() - left)) <= 2 * tol).all()
            if D == 0:
                continue
            top = D * (side + 1)
            want = bincount_moments(piece, t, w, top, P)
            bound = 1e-12 * bincount_moments(piece, np.abs(t), np.abs(w), top, P)
            dirty = np.isin(np.arange(P), piece[bad])
            got = (wk.gmom, wk.hmom)[side][out]
            assert np.isnan(got[dirty]).all() and np.isfinite(got[~dirty]).all()
            assert (np.abs(got - want)[~dirty] <= bound[~dirty]).all()
            assert (got[np.bincount(piece, minlength=P) == 0] == 0.0).all()

    # every output the feature does not serve stays 0
    masked = np.setdiff1d(np.arange(wk.sums.shape[0]), outputs)
    for a in (wk.sums, wk.bins, wk.gmom, wk.hmom):
        assert not a[masked].any()

    # the same feature serving only its last output sums it bit for bit alike
    last = outputs[-1]
    alone = _FeatureWork(x, fb, fc, outputs[-1:])
    _Scan([alone])(GH)
    assert alone.sums[last].tobytes() == wk.sums[last].tobytes()

    # regression's h never changes: after a scan of other g with the same h,
    # the kept h side equals that of a fresh scan, bit for bit. The g side
    # is then summed alone, as a matrix-vector product, so only its last
    # bits may differ: within 1e-12 of sum|g * (x - u)^d| over both sides,
    # which is what a scan of |g| gives (every term of a side has one sign).
    kept = _FeatureWork(x, fb, fc, outputs)
    scan = _Scan([kept])
    scan(GH)
    g2 = rng.normal(size=(n, J))
    scan(scan_matrix(g2, h), h_side=False)
    fresh = _FeatureWork(x, fb, fc, outputs)
    _Scan([fresh])(scan_matrix(g2, h))
    assert kept.sums[:, 2:].tobytes() == fresh.sums[:, 2:].tobytes()
    absolute = _FeatureWork(x, fb, fc, outputs)
    _Scan([absolute])(scan_matrix(np.abs(g2), h))
    scale = np.abs(absolute.sums[:, :2]).sum(axis=1, keepdims=True)
    assert (np.abs(kept.sums[:, :2] - fresh.sums[:, :2]) <= 1e-12 * scale).all()


@st.composite
def run_cases(draw):
    """Features of one fit, as (S, D, allowed outputs, pieces, constant):
    a fine-scan feature, a constant one without candidates and a feature
    without a fine scan that shares the first one's run, then a few drawn
    ones of mixed degrees, output sets and block sizes (one piece of n rows
    makes blocks of n / 4 > 32 rows, and from about 300 rows so do eight
    pieces). Tied draws give each feature its own largest piece, and so its
    own block size."""
    J = draw(st.sampled_from([1, 3]))
    out_sets = [list(range(J)), [J - 1], [0, J - 1]] if J > 1 else [[0]]
    D = draw(st.integers(1, 3))
    outputs = draw(st.sampled_from(out_sets))
    feats = [(-1, D, outputs, 8, False), (-1, D, outputs, 8, True),
             (draw(st.integers(0, D - 1)), D, outputs, 8, False)]
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(0, 3))
        feats.append((draw(st.integers(-1, d - 1)) if d else -1, d,
                      draw(st.sampled_from(out_sets)), draw(st.sampled_from([1, 8])), False))
    n = draw(st.integers(150, 3000))
    ties = draw(st.booleans())  # 40 levels, so pieces hold tied values
    nan_at = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 1), st.integers(0, J - 1))))
    return J, feats, n, ties, nan_at, draw(st.integers(0, 2**16))


@given(run_cases())
def test_run_scan_matches_each_feature_alone(case):
    """A run of several features sums each of them bit for bit as a scan
    of that feature alone: its side sums, fine bins and per-piece moments,
    after a full scan and after a second one that keeps the h side. The
    first run holds a fine-scan feature followed by one without, so the
    fine reduceat must end the first feature's last bin at the second
    feature's first slot."""
    J, feats, n, ties, nan_at, seed = case
    rng = np.random.default_rng(seed)
    draw = (lambda m: rng.integers(0, 40, m) * 0.25) if ties else (lambda m: rng.normal(size=m))
    g, h = rng.normal(size=(n, J)), rng.uniform(0.1, 2.0, size=(n, J))
    if nan_at is not None:
        g[nan_at] = np.nan
    args = []
    for k, (S, D, outputs, pieces, constant) in enumerate(feats):
        # the third feature reads the first one's column, so the two share
        # their largest piece, their block size and so their run
        x = np.full(n, 2.0) if constant else args[0][0] if k == 2 else draw(n)
        fb = build_bin_layout(make_dataset(x, np.zeros(n)), SplitScheme(64, pieces))[0]
        args.append((x, fb, FeatureConstraint(smoothness=S, max_degree=D), outputs))
    # the constant feature has no candidate, so a fit builds it no workspace
    assert _FeatureWork(*args.pop(1)).sums.size == 0
    works = [_FeatureWork(*a) for a in args]
    alone = [_FeatureWork(*a) for a in args]
    scan = _Scan(works)
    assert scan.runs[0].works[:2] == works[:2]
    scans = [_Scan([wk]) for wk in alone]
    g2 = rng.normal(size=(n, J))
    for GH, h_side in ((scan_matrix(g, h), True), (scan_matrix(g2, h), False)):
        scan(GH, h_side)
        for s in scans:
            s(GH, h_side)
        for k, (run_wk, wk) in enumerate(zip(works, alone)):
            for name in ("sums", "bins", "gmom", "hmom"):
                assert getattr(run_wk, name).tobytes() == getattr(wk, name).tobytes(), (k, name)


# prints the sha256 of the model file of the fit result `res`
PRINT_SHA = "print(hashlib.sha256(pg.model.dumps_model(res.store).encode()).hexdigest())"


def run_fresh(code: str, threads: str) -> list[str]:
    """The words `code` prints, run in a fresh interpreter at
    PB_THREADS=threads after `import polygam as pg, hashlib` and `import
    numpy as np`. polygam is imported before numpy, so the thread cap lands
    before BLAS starts."""
    env = dict(os.environ, PB_THREADS=threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    res = subprocess.run([sys.executable, "-c", "import polygam as pg, hashlib\n"
                          "import numpy as np\n" + code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def model_sha_per_thread_count(fit: str) -> list[str]:
    """sha256 of dumps_model(res.store) after running `fit` (which binds
    res) in a fresh interpreter at PB_THREADS=1 and =2."""
    shas = [run_fresh(f"{fit}\n{PRINT_SHA}\n", threads)[0] for threads in ("1", "2")]
    assert len(shas[0]) == 64
    return shas


def test_fit_bytes_do_not_depend_on_blas_threads():
    # two coarse pieces make blocks of over 4000 rows, large enough for
    # OpenBLAS to split a product across threads
    fit = (
        "rng = np.random.default_rng(4)\n"
        "X = rng.normal(size=(40000, 3))\n"
        "f = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + rng.logistic(size=40000)\n"
        "ds = pg.Dataset(X=X, y=(f > 1).astype(np.int64), feature_names=['a', 'b', 'c'],\n"
        "                kinds=['numeric'] * 3, task='binary', n_outputs=1)\n"
        "layout = pg.build_bin_layout(ds, pg.SplitScheme(256, 2))\n"
        "cfg = pg.TrainConfig(max_iterations=10, early_stopping_patience=0)\n"
        "res = pg.train(ds, layout=layout, config=cfg)"
    )
    shas = model_sha_per_thread_count(fit)
    assert shas[0] == shas[1]


def test_global_term_bytes_do_not_depend_on_blas_threads():
    # S = 1 and no threshold that leaves min_data_in_leaf rows on both
    # sides: every update is a global term, fit from sums over all 12,000
    # rows, past where OpenBLAS splits a 1-D dot product across threads
    fit = (
        "rng = np.random.default_rng(3)\n"
        "X = rng.normal(size=(12000, 2))\n"
        "f = 2.0 * X[:, 0] - X[:, 1] + rng.logistic(size=12000)\n"
        "ds = pg.Dataset(X=X, y=(f > 0).astype(np.int64), feature_names=['a', 'b'],\n"
        "                kinds=['numeric'] * 2, task='binary', n_outputs=1)\n"
        "spec = pg.ConstraintSpec.default(ds, smoothness=1, max_degree=2)\n"
        "cfg = pg.TrainConfig(max_iterations=10, early_stopping_patience=0,\n"
        "                     validation_fraction=0.0, min_data_in_leaf=12000)\n"
        "res = pg.train(ds, constraints=spec, config=cfg)\n"
        "assert {r.kind for r in res.log} == {'global'}"
    )
    shas = model_sha_per_thread_count(fit)
    assert shas[0] == shas[1]


# two features of 40,000 rows, 35,000 of them for training: the training
# rows number more than PAR_MIN_VALUES and each feature is its own run of
# more than PAR_MIN_VALUES slots, so with two CPUs the fit builds one
# feature's workspace on each lane, then scans segments and runs its row
# pass on two lanes. The row pass cuts the validation rows and then the
# training rows as one sequence: the first lane passes over all 5,000
# validation rows and the first 15,000 training rows, the second over the
# other 20,000 training rows
LANE_FIT = (
    "rng = np.random.default_rng(5)\n"
    "X = rng.normal(size=(40000, 2))\n"
    "f = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + rng.logistic(size=40000)\n"
    "y = {'regression': f, 'binary': (f > 1).astype(np.int64),\n"
    "     'multiclass': np.digitize(f, [0.5, 1.5])}[task]\n"
    "ds = pg.Dataset(X=X, y=y, feature_names=['a', 'b'], kinds=['numeric'] * 2, task=task,\n"
    "                n_outputs=3 if task == 'multiclass' else 1)\n"
    "cfg = pg.TrainConfig(max_iterations=4, early_stopping_patience=0,\n"
    "                     validation_fraction=0.125)\n"
    "res = pg.train(ds, config=cfg)"
)
# LANE_FIT's model bytes. Its blocks hold about 360 rows, where every fit of
# tools/byte_grid.py keeps 32-row blocks, so a change to how blocks are
# sized moves these bytes and not the grid's. A change that moves them on
# purpose updates them in the same commit and says why
LANE_FIT_PINNED = {
    "binary": "f0ea90e905a66ae1af5289ec626dad9ebe5eddc11a7deefd68df426e2ca9468f",
    "multiclass": "f583014b933095e2c280b717db674b861fdd709c60a7aaf9967d2d3de30052f1",
}
# the per-lane stages: a workspace build, a scan segment and the row pass's
# derivative and loss kernels
LANE_STAGES = [(booster._FeatureWork, "_build_blocks"), (booster._Segment, "scan"),
               (booster, "derivative_rows"), (booster, "loss_rows")]


def run_lane_fit(task="binary"):
    ns = {"pg": polygam, "np": np, "task": task}
    exec(LANE_FIT, ns)
    return ns["res"]


def spy_lanes(monkeypatch, seen: dict, record=lambda: threading.get_ident()):
    """Wrap every per-lane stage so that each call adds record() to
    seen[stage name]."""
    for owner, name in LANE_STAGES:
        fn = getattr(owner, name)

        def spy(*args, fn=fn, name=name):
            seen.setdefault(name, set()).add(record())
            return fn(*args)

        monkeypatch.setattr(owner, name, spy)


def lane_fit(monkeypatch, cpus: int, task="binary"):
    """LANE_FIT with the CPU count stubbed to `cpus`; returns the result
    and, per stage, the set of threads that ran it."""
    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    threads = {}
    with monkeypatch.context() as m:
        spy_lanes(m, threads)
        res = run_lane_fit(task)
    return res, threads


def test_lanes_keep_model_bytes_and_log(monkeypatch):
    for task in ("regression", "binary", "multiclass"):
        one, one_threads = lane_fit(monkeypatch, 1, task)
        two, two_threads = lane_fit(monkeypatch, 2, task)
        assert set(one_threads) == set(two_threads) == {name for _, name in LANE_STAGES}
        assert all(t == {threading.get_ident()} for t in one_threads.values()), task
        # a worker lane built a workspace, scanned and ran the row pass
        # beside this thread
        assert all(len(t) == 2 for t in two_threads.values()), task
        assert one.valid_loss is not None
        assert dumps_model(two.store) == dumps_model(one.store), task
        assert [r.to_json() for r in two.log] == [r.to_json() for r in one.log], task
        assert (two.train_loss, two.valid_loss) == (one.train_loss, one.valid_loss), task
        if task == "binary":
            one_lane_sha = hashlib.sha256(dumps_model(one.store).encode()).hexdigest()
    # the binary lane fit at one and two BLAS threads, in fresh interpreters
    shas = model_sha_per_thread_count("pg.lanes._cpus = lambda: 2\ntask = 'binary'\n" + LANE_FIT)
    assert shas == [one_lane_sha] * 2


@pytest.mark.parametrize("task", sorted(LANE_FIT_PINNED))
def test_lane_fit_bytes_are_pinned(task):
    # on one lane and on two, at one BLAS thread
    code = (f"task = {task!r}\n"
            "for cpus in (1, 2):\n"
            "    pg.lanes._cpus = lambda: cpus\n"
            f"    exec({LANE_FIT!r})\n"
            f"    {PRINT_SHA}\n")
    assert run_fresh(code, "1") == [LANE_FIT_PINNED[task]] * 2


def test_lanes_leave_no_thread_and_raise_a_lane_error(monkeypatch):
    before, caller = threading.active_count(), threading.get_ident()
    lane_fit(monkeypatch, 2)
    assert threading.active_count() == before
    # an error in a workspace build, a scan segment, and the row pass's
    # derivatives and loss terms
    for owner, name in LANE_STAGES:
        fn = getattr(owner, name)

        def fail_off_the_calling_thread(*args, fn=fn):
            if threading.get_ident() != caller:
                raise FloatingPointError("lane failed")
            return fn(*args)

        with monkeypatch.context() as m:
            m.setattr(owner, name, fail_off_the_calling_thread)
            with pytest.raises(FloatingPointError, match="lane failed"):
                run_lane_fit()
        assert threading.active_count() == before, name


def test_worker_lanes_keep_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(lanes, "_cpus", lambda: 2)
    seen = {}
    spy_lanes(monkeypatch, seen, lambda: (threading.get_ident(), np.geterr()["over"]))
    with np.errstate(over="raise"):
        run_lane_fit()
    assert len(seen) == len(LANE_STAGES)
    for calls in seen.values():
        assert {over for _, over in calls} == {"raise"} and len(calls) == 2


def lane_fit_works(monkeypatch, cpus: int):
    """The workspaces of LANE_FIT with the CPU count stubbed to `cpus`, as
    the fit hands them from the build to `_Candidates`."""
    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    built, candidates = [], booster._Candidates
    with monkeypatch.context() as m:
        m.setattr(booster, "_Candidates",
                  lambda works, *args: built.append(works) or candidates(works, *args))
        run_lane_fit()
    return built[0]


def test_workspaces_keep_their_bits_on_two_lanes(monkeypatch):
    one, two = lane_fit_works(monkeypatch, 1), lane_fit_works(monkeypatch, 2)
    assert len(one) == len(two) == 2
    for a, b in zip(one, two):
        for name in ("slot_row", "tblock", "fine_start", "block_start", "Wg", "Wh"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        # t^m is stored as (m, block, slot): the block product's BLAS path,
        # and so its bits, depend on that layout
        assert b.tblock.transpose(1, 0, 2).flags.c_contiguous


def test_workspace_build_holds_little_beside_what_it_keeps():
    # the build's transient peak, its peak less the arrays it keeps, in
    # arrays of n float64; gathering t^1 into the powers, forming them in
    # place and dropping the sort's arrays first keeps it under 2.5
    rng = np.random.default_rng(6)
    x = rng.normal(size=40000)
    fb = layout_for(make_dataset(x, x))[0]
    fc = FeatureConstraint(smoothness=-1, max_degree=3)
    _FeatureWork(x, fb, fc)  # the layout's cached lookups are made here
    tracemalloc.start()
    try:
        wk = _FeatureWork(x, fb, fc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wk.tblock.shape[1] == 4
    assert (peak - kept) / (8 * x.size) <= 2.5


def test_one_pool_per_fit_opens_before_the_build(monkeypatch):
    # LANE_FIT on 4,000 rows: 3,500 training rows, and each feature its own
    # run of a few hundred slots more. At a gate of 3,500 values the build,
    # the scan and the row pass go on lanes; at the biggest run's slots only
    # the scan does; at 2^20 none does, and no thread starts. At every gate
    # the fit opens one pool, before the build; it starts a thread only once
    # a pass hands it a job
    monkeypatch.setattr(lanes, "_cpus", lambda: 2)
    pool, start, dumps = lanes._lanes_pool, threading.Thread.start, []
    scans, scan = [], booster._Scan
    with monkeypatch.context() as m:
        m.setattr(booster, "_Scan", lambda works: scans.append(scan(works)) or scans[-1])
        exec(LANE_FIT.replace("40000", "4000"), {"pg": polygam, "np": np, "task": "binary"})
    biggest = max(run.slot_row.size for run in scans[0].runs)
    assert 3500 < min(run.slot_row.size for run in scans[0].runs) <= biggest < 2**20
    for gate, on_two in ((3500, {"_build_blocks", "scan", "derivative_rows", "loss_rows"}),
                         (biggest, {"scan"}),
                         (2**20, set())):
        threads, calls, started = {}, [], []
        with monkeypatch.context() as m:
            m.setattr(lanes, "PAR_MIN_VALUES", gate)
            m.setattr(lanes, "_lanes_pool",
                      lambda: calls.append("_build_blocks" in threads) or pool())
            m.setattr(threading.Thread, "start",
                      lambda self: started.append(self.name) or start(self))
            spy_lanes(m, threads)
            before = threading.active_count()
            ns = {"pg": polygam, "np": np, "task": "binary"}
            exec(LANE_FIT.replace("40000", "4000"), ns)
        assert threading.active_count() == before
        assert calls == [False], gate
        assert {name for name, t in threads.items() if len(t) == 2} == on_two, gate
        assert len(started) == (1 if on_two else 0), gate
        dumps.append(dumps_model(ns["res"].store))
    assert dumps[1] == dumps[0] and dumps[2] == dumps[0]


def test_a_fit_below_every_gate_imports_no_thread_pool():
    # on two CPUs, a fit and a predict far below every gate hand the pool no
    # job, so it never starts and `concurrent.futures` is never loaded
    code = (
        "import sys\n"
        "import polygam as pg\n"
        "import numpy as np\n"
        "pg.lanes._cpus = lambda: 2\n"
        "rng = np.random.default_rng(0)\n"
        "X = rng.normal(size=(300, 2))\n"
        "ds = pg.Dataset(X=X, y=X[:, 0] + rng.normal(size=300), feature_names=['a', 'b'],\n"
        "                kinds=['numeric'] * 2, task='regression', n_outputs=1)\n"
        "res = pg.train(ds, config=pg.TrainConfig(max_iterations=20))\n"
        "pg.predict(res.store, X)\n"
        "print(res.n_iterations, 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    iterations, loaded = out.stdout.split()
    assert int(iterations) > 0 and loaded == "False"


def test_a_feature_without_a_candidate_or_an_output_gets_no_workspace(monkeypatch):
    # x1 holds one value, so at S = -1 it has no candidate, and every output
    # masks x2: the fit builds a workspace for neither
    rng = np.random.default_rng(12)
    X = np.column_stack([rng.normal(size=400), np.full(400, 2.0), rng.normal(size=(400, 2))])
    y = np.digitize(X[:, 0] + X[:, 2] + X[:, 3] + rng.normal(size=400), [-1.0, 1.0])
    ds = make_dataset(X, y, task="multiclass")
    layout = layout_for(ds)
    mask = np.ones((3, 4), dtype=bool)
    mask[:, 2] = False
    spec = ConstraintSpec(features=[FeatureConstraint(smoothness=-1, max_degree=3)] * 4,
                          allow_mask=mask)
    cfg = TrainConfig(max_iterations=10, early_stopping_patience=0, validation_fraction=0.0)
    built, work = [], booster._FeatureWork
    monkeypatch.setattr(booster, "_FeatureWork",
                        lambda x, fb, *args: built.append(fb) or work(x, fb, *args))
    res = train(ds, layout, spec, cfg)
    assert sorted(map(id, built)) == sorted(map(id, [layout[0], layout[3]]))
    assert res.n_iterations == 10 and {rec.feature for rec in res.log} <= {"x0", "x3"}


def test_coarse_edges_off_the_fine_grid_are_refused_without_a_workspace():
    # the masked column's layout is refused although the fit builds it no
    # workspace
    ds = wiggly_dataset(200, 20)
    feats = list(layout_for(ds).features)
    fb = feats[1]
    feats[1] = FeatureBins(fb.fine_edges, fb.coarse_edges + 1e-3, fb.x_min, fb.x_max)
    layout = BinLayout(feats)
    spec = ConstraintSpec.default(ds)
    spec.allow_mask[:, 1] = False
    with pytest.raises(DataError, match="coarse edges are not on the fine grid"):
        train(ds, layout, spec, TrainConfig(max_iterations=3, early_stopping_patience=0))


def test_segments_of_equal_runs_deal_evenly(monkeypatch):
    # seven equal one-feature runs on two lanes: dealt whole they load the
    # lanes 4 to 3 runs; cut into two segments each, the lanes' loads differ
    # by at most one segment, and every sum keeps its bits
    monkeypatch.setattr(lanes, "PAR_MIN_VALUES", 0)
    monkeypatch.setattr(lanes, "_cpus", lambda: 1)
    rng = np.random.default_rng(8)
    x = rng.normal(size=10000)
    ds = make_dataset(np.column_stack([x] * 7), x + rng.normal(size=10000))
    layout = layout_for(ds)
    works = [[_FeatureWork(x, layout[k], FeatureConstraint()) for k in range(7)]
             for _ in range(2)]
    one = _Scan(works[0])
    monkeypatch.setattr(lanes, "_cpus", lambda: 2)
    two = _Scan(works[1])
    assert len(one.runs) == len(two.runs) == 7
    segments = [seg for lane in two.lanes for seg in lane]
    assert [sum(seg.run is run for seg in segments) for run in two.runs] == [2] * 7
    loads = [sum(seg.slot_row.size for seg in lane) for lane in two.lanes]
    biggest = max(seg.slot_row.size for lane in two.lanes for seg in lane)
    assert abs(loads[0] - loads[1]) <= biggest
    assert max(lane_buf.size for lane_buf in two.bufs) < one.bufs[0].size
    GH = scan_matrix(rng.normal(size=10000), rng.uniform(0.1, 1.0, size=10000))
    one(GH)
    with lanes._lanes_pool() as pool:
        two(GH, pool=pool)
    for a, b in zip(works[0], works[1]):
        assert a.sums.tobytes() == b.sums.tobytes()


def test_each_run_is_recombined_once_under_contention(monkeypatch):
    # more lanes than cores and a short switch interval: each run is
    # recombined once per scan, on the calling thread, and its sums keep
    # their bits. The six features pair into runs, each cut into four
    # segments
    monkeypatch.setattr(lanes, "PAR_MIN_VALUES", 0)
    monkeypatch.setattr(lanes, "_cpus", lambda: 1)
    rng = np.random.default_rng(9)
    x = rng.normal(size=8000)
    ds = make_dataset(np.column_stack([x] * 6), x + rng.normal(size=8000))
    layout = layout_for(ds)
    works = [[_FeatureWork(x, layout[k], FeatureConstraint()) for k in range(6)]
             for _ in range(2)]
    one = _Scan(works[0])
    monkeypatch.setattr(lanes, "_cpus", lambda: 4)
    four = _Scan(works[1])
    assert len(four.runs) < 6
    segments = [seg for lane in four.lanes for seg in lane]
    assert [sum(seg.run is run for seg in segments) for run in four.runs] == [4] * len(four.runs)
    GH = scan_matrix(rng.normal(size=8000), rng.uniform(0.1, 1.0, size=8000))
    one(GH)
    calls, recombine = [], booster._Run.recombine
    monkeypatch.setattr(booster._Run, "recombine",
                        lambda run, h_side: calls.append((id(run), threading.get_ident()))
                        or recombine(run, h_side))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with lanes._lanes_pool() as pool:
            for _ in range(40):
                calls.clear()
                four(GH, pool=pool)
                me = threading.get_ident()
                assert sorted(calls) == sorted((id(run), me) for run in four.runs)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(*works):
        assert a.sums.tobytes() == b.sums.tobytes()


@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
@pytest.mark.parametrize("S", [-1, 0, 1, 2])
def test_training_and_validation_scores_share_one_update(task, S):
    # validating on the training rows must reproduce the training loss bit
    # for bit: both score vectors take the same lr*gamma*(x-u)^d update
    rng = np.random.default_rng(S + 1)
    X = rng.uniform(-1.0, 2.0, size=(200, 2))
    f = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1])
    if task == "regression":
        y = f + rng.normal(scale=0.3, size=200)
    elif task == "binary":
        y = f > np.median(f)
    else:
        y = np.digitize(f, np.quantile(f, [0.33, 0.66]))
    ds = make_dataset(X, y, task=task)
    spec = ConstraintSpec.default(ds, smoothness=S, max_degree=3)
    # large leaves keep splits away from the ends, so global terms win too
    cfg = TrainConfig(learning_rate=0.3, max_iterations=30, early_stopping_patience=0,
                      min_data_in_leaf=80)
    res = train(ds, layout=build_bin_layout(ds, SplitScheme(48, 8)), constraints=spec,
                config=cfg, valid=ds)
    kinds = {rec.kind for rec in res.log}
    assert kinds == ({"split", "global"} if S >= 0 else {"split"})
    for rec in res.log:
        assert rec.valid_loss == rec.train_loss, rec


# ---------------------------------------------------------------------------
# single-iteration oracle equivalence


def test_first_iteration_matches_stump_oracle():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, 80)
    y = np.sin(x) + rng.normal(scale=0.3, size=80)
    ds = make_dataset(x, y)
    layout = layout_for(ds)
    spec = ConstraintSpec.default(ds, smoothness=-1, max_degree=0)
    cfg = TrainConfig(
        learning_rate=1.0,
        l1=0.0,
        l2=0.0,
        min_data_in_leaf=1,
        max_iterations=1,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, layout, spec, cfg)
    assert len(res.log) == 1
    rec = res.log[0]
    b = derivatives("regression", y, np.full((80, 1), y.mean()))
    oracle = brute_force_stump(
        x, b.g[:, 0], b.h[:, 0], layout[0].fine_edges, l1=0.0, l2=0.0, min_leaf=1
    )
    assert rec.threshold == oracle[0]
    assert abs(rec.gamma_left - oracle[1]) <= 1e-10
    assert abs(rec.gamma_right - oracle[2]) <= 1e-10


# ---------------------------------------------------------------------------
# determinism, replay, early stopping


def wiggly_dataset(n, seed, k=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, k))
    y = np.sin(2 * X[:, 0]) + rng.normal(scale=0.2, size=n)
    if k > 1:
        y = y + 0.5 * X[:, 1] ** 2
    return make_dataset(X, y)


def test_training_is_deterministic():
    cfg = TrainConfig(max_iterations=150, early_stopping_patience=20, seed=3)
    runs = []
    for _ in range(2):
        res = train(wiggly_dataset(300, 7), config=cfg)
        runs.append(
            (dumps_model(res.store), "\n".join(r.to_json() for r in res.log))
        )
    assert runs[0] == runs[1]


def replay_fit(fit: str):
    """(dataset, constraints, min_data_in_leaf, (kind, degree >= 1) pairs
    the log must hold) of a fit for the replay test."""
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, size=(250, 2))
    if fit == "unconstrained":
        return wiggly_dataset(250, 8), None, 10, {("split", True)}
    if fit == "constrained":
        # x0 monotone and convex, S = 1: global degrees 0 and 1, splits of 2 and 3
        y = 3 * X[:, 0] + np.exp(X[:, 0]) / 2 + 0.5 * np.sin(2 * X[:, 1])
        ds = make_dataset(X, y + rng.normal(scale=0.2, size=250))
        spec = ConstraintSpec([FeatureConstraint(1, 3, 1, 1), FeatureConstraint(1, 3)],
                              np.ones((1, 2), dtype=bool))
        return ds, spec, 80, {("global", False), ("global", True), ("split", True)}
    # masked multiclass, S = -1: x1 is out of output 1; degree-0 splits
    f = X[:, 0] + np.sin(2 * X[:, 1])
    y = np.digitize(f + rng.normal(scale=0.3, size=250), np.quantile(f, [0.33, 0.66]))
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(ds, smoothness=-1, outputs_for={"x1": [0, 2]})
    return ds, spec, 10, {("split", False), ("split", True)}


@pytest.mark.parametrize("fit", ["unconstrained", "constrained", "masked_multiclass"])
def test_replay_bit_matches_initial_and_final_state(fit):
    ds, spec, min_leaf, folds = replay_fit(fit)
    cfg = TrainConfig(max_iterations=60, early_stopping_patience=0, validation_fraction=0.0,
                      min_data_in_leaf=min_leaf)
    res = train(ds, constraints=spec, config=cfg)
    assert res.n_iterations == 60
    assert {(r.kind, r.degree >= 1) for r in res.log} >= folds
    assert dumps_model(res.replay_to(0)) == dumps_model(res.initial_store)
    assert dumps_model(res.replay_to(60)) == dumps_model(res.store)
    assert dumps_model(replay(res.initial_store, res.log, 60, cfg.learning_rate)) == dumps_model(
        res.store
    )


def test_rollback_returns_best_validation_state():
    ds = wiggly_dataset(150, 10)
    valid = wiggly_dataset(120, 11)
    cfg = TrainConfig(
        learning_rate=0.9,
        max_iterations=500,
        early_stopping_patience=10,
        validation_fraction=0.0,
    )
    res = train(ds, valid=valid, config=cfg)
    assert res.n_iterations < 500  # patience fired
    assert res.best_iteration < res.n_iterations
    best_logged = min(r.valid_loss for r in res.log)
    got = loss_eval("regression", valid.y, predict(res.store, valid.X))
    assert got == pytest.approx(best_logged, rel=1e-10)
    at_best = {r.valid_loss for r in res.log if r.iteration == res.best_iteration}
    assert best_logged in at_best
    # the result reports the kept model's losses, not the last iteration's
    assert res.valid_loss == best_logged
    kept = [r for r in res.log if r.iteration == res.best_iteration]
    assert res.train_loss == kept[0].train_loss
    assert res.valid_loss != res.log[-1].valid_loss


def test_rollback_to_iteration_zero_reports_starting_losses():
    ds = wiggly_dataset(150, 10)
    flipped = wiggly_dataset(120, 11)
    # validation targets of the opposite sign: no iteration improves on the
    # starting validation loss
    valid = make_dataset(flipped.X, -flipped.y)
    cfg = TrainConfig(max_iterations=50, early_stopping_patience=3, validation_fraction=0.0)
    res = train(ds, valid=valid, config=cfg)
    assert res.best_iteration == 0 < res.n_iterations
    start = train(ds, valid=valid, config=TrainConfig(max_iterations=0, validation_fraction=0.0,
                                                      early_stopping_patience=0))
    assert (res.train_loss, res.valid_loss) == (start.train_loss, start.valid_loss)


def test_patience_zero_keeps_last_iteration():
    ds = wiggly_dataset(150, 13)
    valid = wiggly_dataset(80, 14)
    cfg = TrainConfig(
        learning_rate=0.9,
        max_iterations=120,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, valid=valid, config=cfg)
    assert res.n_iterations == 120
    got = loss_eval("regression", ds.y, predict(res.store, ds.X))
    assert got == pytest.approx(res.log[-1].train_loss, rel=1e-10)


def test_early_stop_without_validation_is_config_error():
    ds = wiggly_dataset(100, 15)
    cfg = TrainConfig(early_stopping_patience=5, validation_fraction=0.0)
    with pytest.raises(ConfigError):
        train(ds, config=cfg)


def refit_case(case):
    """A 3-feature fit and train's keyword arguments for a `valid` set or
    a `layout` that does not fit it."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 4))
    y = X[:, 0] + rng.normal(scale=0.3, size=120)
    ds = make_dataset(X[:, :3], y)
    if case == "valid_4_outputs":
        ds = make_dataset(X[:, :3], np.arange(120) % 3, task="multiclass")
        valid = make_dataset(X[:, :3], np.arange(120) % 3, task="multiclass")
        valid.n_outputs = 4
        return ds, {"valid": valid}
    if case.startswith("layout"):
        width = int(case[-1])
        return ds, {"layout": build_bin_layout(make_dataset(X[:, :width], y))}
    valid = {"valid_2_columns": make_dataset(X[:, :2], y),
             "valid_4_columns": make_dataset(X, y),
             "valid_reordered": make_dataset(X[:, [1, 0, 2]], y, names=["x1", "x0", "x2"]),
             "valid_binary": make_dataset(X[:, :3], y > 0, task="binary")}[case]
    return ds, {"valid": valid}


@pytest.mark.parametrize("case", ["valid_2_columns", "valid_4_columns", "valid_reordered",
                                  "valid_binary", "valid_4_outputs", "layout_2",
                                  "layout_4"])
def test_train_refuses_a_valid_set_or_layout_that_does_not_fit(case):
    ds, kwargs = refit_case(case)
    cfg = TrainConfig(max_iterations=3, early_stopping_patience=0)
    with pytest.raises(DataError, match="valid has|layout has"):
        train(ds, config=cfg, **kwargs)


# ---------------------------------------------------------------------------
# the one rule of what a fit may start from: `ParameterStore.validate`


FINE, COARSE = np.arange(1.0, 10.0), np.array([3.0, 6.0])


def boundary_fit(case):
    """A two-feature regression fit on [0, 10] whose layout, spec or
    dataset one case changes: (dataset, layout, spec)."""
    rng = np.random.default_rng(30)
    X = rng.uniform(0.0, 10.0, size=(200, 2))
    ds = make_dataset(X, X[:, 0] - X[:, 1] + rng.normal(size=200))
    bins = dict(fine_edges=FINE, coarse_edges=COARSE, x_min=0.0, x_max=10.0)
    spec = ConstraintSpec.default(ds)
    change = {
        "nan_edge": lambda: bins.update(fine_edges=np.append(FINE[:-1], np.nan)),
        "nan_x_min": lambda: bins.update(x_min=np.nan),
        "unknown_kind": lambda: bins.update(kind="ordinal"),
        "x_min_above_the_first_edge": lambda: bins.update(x_min=1.5),
        "2d_edges": lambda: bins.update(fine_edges=FINE[None, :]),
        "int_edges": lambda: bins.update(fine_edges=FINE.astype(int),
                                         coarse_edges=COARSE.astype(int)),
        "int_x_min": lambda: bins.update(x_min=0, x_max=10),
        "list_edges": lambda: bins.update(fine_edges=FINE.tolist(), coarse_edges=COARSE.tolist()),
        "target_name_5": lambda: setattr(ds, "target_name", 5),
        "n_outputs_true": lambda: setattr(ds, "n_outputs", True),
        "monotone_true": lambda: spec.features.__setitem__(0, FeatureConstraint(monotone=True)),
        "int_allow_mask": lambda: setattr(spec, "allow_mask", spec.allow_mask.astype(int)),
        "str_allow_mask": lambda: setattr(spec, "allow_mask", np.where(spec.allow_mask, "y", "n")),
    }
    if case:
        change[case]()
    layout = BinLayout([FeatureBins(**bins), FeatureBins(FINE, COARSE, 0.0, 10.0)])
    return ds, layout, spec


BOUNDARY_CFG = TrainConfig(max_iterations=8, early_stopping_patience=0)


@pytest.mark.parametrize("case, error, match", [
    ("nan_edge", DataError, "fine edges are not strictly ascending"),
    ("nan_x_min", DataError, "observed range not finite"),
    ("unknown_kind", DataError, "kinds must give"),
    ("x_min_above_the_first_edge", DataError, r"strictly inside \(x_min, x_max\)"),
    ("2d_edges", DataError, r"fine_edges must be one column, got shape \(1, 9\)"),
    ("target_name_5", DataError, "the target name must be a string, got 5"),
    ("n_outputs_true", DataError, "got n_outputs = True"),
    ("monotone_true", ConfigError, "monotone sign must be an integer, got True"),
    ("int_allow_mask", ConfigError, "allow mask must be a bool array"),
    ("str_allow_mask", ConfigError, "allow mask must be a bool array"),
])
def test_train_refuses_what_load_model_refuses_before_any_fit_work(monkeypatch, case, error,
                                                                    match):
    # every input a model file may not hold is refused, with a typed error,
    # before the fit carves a validation split or builds a workspace
    def started(*args, **kwargs):
        raise AssertionError("the fit started work on a refused input")

    monkeypatch.setattr(booster, "split_indices", started)
    monkeypatch.setattr(booster, "_FeatureWork", started)
    with pytest.raises(error, match=match):
        train(*boundary_fit(case), BOUNDARY_CFG)


@pytest.mark.parametrize("case", ["int_edges", "int_x_min", "list_edges"])
def test_train_reads_int_and_list_bins_as_the_float_model_it_saves(tmp_path, case):
    # the bins hold float64 edges and float bounds whatever they were handed
    # in as, so the fit is the float layout's and its file reloads to the
    # same bytes
    text = dumps_model(train(*boundary_fit(case), BOUNDARY_CFG).store)
    assert text == dumps_model(train(*boundary_fit(None), BOUNDARY_CFG).store)
    path = tmp_path / "model.json"
    path.write_text(text)
    assert dumps_model(load_model(path)) == text


def signed_constraints():
    """A FeatureConstraint with any S <= D - 1 and signs it can hold."""
    return st.integers(0, 3).flatmap(lambda D: st.integers(-1, D - 1).flatmap(
        lambda S: st.builds(FeatureConstraint, st.just(S), st.just(D), st.integers(-1, 1),
                            st.integers(-1, 1) if S >= 0 and D >= 2 else st.just(0))))


@pytest.mark.filterwarnings("ignore:feature .* is constrained but allowed in multiple")
@settings(max_examples=30)
@given(st.sampled_from(["regression", "binary", "multiclass"]), st.integers(1, 3),
       st.data(), st.integers(0, 2**16))
def test_every_fit_round_trips_byte_for_byte(tmp_path_factory, task, K, data, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, K))
    y = X.sum(axis=1) + rng.normal(size=80)
    if task != "regression":
        y = np.digitize(y, [0.0] if task == "binary" else [-0.5, 0.5])
    ds = make_dataset(X, y, task=task)
    fcs = [data.draw(signed_constraints()) for _ in range(K)]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=ds.n_outputs * K,
                                       max_size=ds.n_outputs * K)), dtype=bool)
    spec = ConstraintSpec(fcs, mask.reshape(ds.n_outputs, K))
    layout = layout_for(ds, 32, 6)
    if data.draw(st.booleans()):  # the same bins handed in as lists
        layout = BinLayout([FeatureBins(fb.fine_edges.tolist(), fb.coarse_edges.tolist(),
                                        fb.x_min, fb.x_max) for fb in layout.features])
    cfg = TrainConfig(max_iterations=6, early_stopping_patience=0, min_data_in_leaf=5)
    text = dumps_model(train(ds, layout, spec, cfg).store)
    path = tmp_path_factory.getbasetemp() / "fit_round_trip.json"
    path.write_text(text)
    assert dumps_model(load_model(path)) == text


def test_train_config_collects_all_errors():
    cfg = TrainConfig(learning_rate=0.0, l2=-1.0, min_data_in_leaf=0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    assert "learning_rate" in msg and "l2" in msg and "min_data_in_leaf" in msg


@pytest.mark.parametrize(
    "field, value",
    [("l1", math.nan), ("l1", math.inf), ("l1", -math.inf), ("l2", math.nan),
     ("l2", math.inf), ("min_data_in_leaf", math.nan), ("min_data_in_leaf", math.inf)],
)
def test_train_config_refuses_non_finite_penalties(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be .*, got {value}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        train(wiggly_dataset(100, 15), config=cfg)


@pytest.mark.parametrize(
    "field, value",
    [("max_iterations", math.nan), ("max_iterations", 2.5), ("max_iterations", 3.0),
     ("early_stopping_patience", math.nan), ("seed", math.nan), ("seed", 1.5), ("seed", -1)],
)
def test_train_config_refuses_nan_and_fractional_iteration_settings(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be .*, got {value}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        train(wiggly_dataset(100, 15), config=cfg)


def test_train_config_names_a_bad_patience():
    with pytest.raises(ConfigError, match="early_stopping_patience must be >= 0, got -3"):
        TrainConfig(early_stopping_patience=-3).validate()


@pytest.mark.parametrize(
    "field, value, kind",
    [("learning_rate", "0.1", "a number"), ("l1", None, "a number"),
     ("early_stopping_patience", "5", "an integer"), ("validation_fraction", "0.1", "a number"),
     ("early_stopping_patience", 2.5, "an integer"),
     ("early_stopping_patience", math.inf, "an integer")],
)
def test_train_config_refuses_a_field_of_the_wrong_type(field, value, kind):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be {kind}, got {value!r}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        train(wiggly_dataset(100, 15), config=cfg)


def test_patience_of_max_iterations_keeps_the_best_without_stopping():
    # what an infinite patience asked for: every iteration runs, and the
    # model kept is the best on the validation rows
    ds, valid = wiggly_dataset(150, 13), wiggly_dataset(80, 14)
    cfg = TrainConfig(learning_rate=0.9, max_iterations=60, early_stopping_patience=60,
                      validation_fraction=0.0)
    res = train(ds, valid=valid, config=cfg)
    by_iteration = {rec.iteration: rec.valid_loss for rec in res.log}
    assert res.n_iterations == 60
    assert res.best_iteration == min(by_iteration, key=by_iteration.get) < 60


def test_nan_target_is_refused_before_training():
    ds = wiggly_dataset(200, 16)
    ds.y[7] = np.nan
    with pytest.raises(NumericError, match="starting loss"):
        train(ds, config=TrainConfig(max_iterations=5))


def test_carve_without_training_rows_is_refused():
    ds = make_dataset([[1.0]], [2.0])
    with pytest.raises(DataError, match="leaves none of the 1 rows for training"):
        train(ds, config=TrainConfig(validation_fraction=0.9, max_iterations=5))


def test_nan_feature_is_refused_before_training():
    ds = wiggly_dataset(200, 18)
    ds.X[11, 1] = np.nan
    with pytest.raises(DataError, match="'x1' holds a non-finite value at row 11"):
        train(ds, config=TrainConfig(max_iterations=5))
    valid = wiggly_dataset(50, 19)
    valid.X[3, 0] = np.inf
    with pytest.raises(DataError, match="'x0'"):
        train(wiggly_dataset(200, 18), config=TrainConfig(max_iterations=5), valid=valid)


def test_target_length_mismatch_is_refused_before_training():
    ds = wiggly_dataset(200, 18)
    ds.y = ds.y[:190]
    with pytest.raises(DataError, match=r"y has shape \(190,\), expected \(200,\)"):
        train(ds, config=TrainConfig(max_iterations=5))


def test_training_computes_the_link_once_per_iteration(monkeypatch):
    # the training loss after an update and the next iteration's derivatives
    # share one softmax; the validation loss needs its own
    calls = []
    link_rows = booster.link_rows
    monkeypatch.setattr(booster, "link_rows", lambda task, F, p, tmp, r: calls.append(
        r.stop - r.start) or link_rows(task, F, p, tmp, r))
    rng = np.random.default_rng(20)
    X = rng.uniform(-2, 2, size=(240, 2))
    y = np.digitize(X[:, 0] + rng.normal(scale=0.5, size=240), [-0.5, 0.5])
    ds = make_dataset(X, y, task="multiclass")
    cfg = TrainConfig(max_iterations=12, early_stopping_patience=0, validation_fraction=0.25)
    res = train(ds, config=cfg)
    assert res.n_iterations == 12
    # each pass runs the validation rows before the training rows
    assert calls == [60, 180] * 13


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_iteration_is_two_lane_jobs(monkeypatch, cpus):
    # the workspace build and the starting loss's row pass, then per
    # iteration a scan and a row pass that also writes the next iteration's
    # g and h
    jobs, on_lanes = [], lanes._on_lanes

    def count(pool, lane_jobs):
        jobs.append(len(lane_jobs))
        on_lanes(pool, lane_jobs)

    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    monkeypatch.setattr(lanes, "_on_lanes", count)
    res = run_lane_fit()
    assert res.n_iterations == 4
    assert jobs == [cpus] * (2 + 2 * 4)


def test_overflowing_target_is_refused_before_training():
    # the squared residuals of targets near 1e300 overflow to an infinite loss
    ds = wiggly_dataset(200, 17)
    ds.y[:] = 1e300 * (1.0 + ds.X[:, 0] ** 2)
    with pytest.raises(NumericError, match="starting loss"), np.errstate(over="ignore"):
        train(ds, config=TrainConfig(max_iterations=5))


# ---------------------------------------------------------------------------
# structural training invariants


def test_smoothness_filter_respected_in_log():
    ds = wiggly_dataset(400, 16)
    spec = ConstraintSpec.default(ds, smoothness=1, max_degree=3)
    cfg = TrainConfig(
        max_iterations=120, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    assert res.log, "training applied no candidates"
    for rec in res.log:
        if rec.kind == "split":
            assert rec.degree >= 2
        else:
            assert rec.degree <= 1


def test_applied_gains_are_positive():
    ds = wiggly_dataset(300, 17)
    cfg = TrainConfig(
        max_iterations=80, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert all(rec.gain > 0 for rec in res.log)
    assert all(math.isfinite(rec.gain) for rec in res.log)


def test_train_loss_improves_over_intercept():
    ds = wiggly_dataset(300, 18)
    cfg = TrainConfig(
        max_iterations=200, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    base = loss_eval("regression", ds.y, np.full((300, 1), ds.y.mean()))
    assert res.train_loss < 0.5 * base


def test_degree0_models_are_piecewise_constant():
    ds = wiggly_dataset(300, 19, k=1)
    layout = layout_for(ds, 32, 8)
    spec = ConstraintSpec.default(ds, smoothness=-1, max_degree=0)
    cfg = TrainConfig(
        max_iterations=60, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, layout, spec, cfg)
    edges = layout[0].fine_edges
    eps = 1e-9
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = np.array([lo + eps, 0.5 * (lo + hi), hi - eps])
        vals = evaluate_shape(res.store, 0, 0, inside)
        assert vals.max() == vals.min()


def test_mask_zeroing_and_bit_identical_outputs():
    rng = np.random.default_rng(20)
    n = 400
    X = rng.uniform(-1, 1, size=(n, 3))
    logits = np.column_stack([2 * X[:, 0], -1.5 * X[:, 1], X[:, 2] ** 2])
    y = np.array([rng.choice(3, p=p) for p in link_apply("multiclass", logits)])
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(
        ds, outputs_for={"x0": [0], "x1": [1], "x2": [2]}
    )
    cfg = TrainConfig(
        max_iterations=80, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            sp = res.store.params[i][k]
            assert not sp.step_values.any()
            assert not sp.poly_coeffs.any()
    base = predict(res.store, X)
    X2 = X.copy()
    X2[:, 0] = rng.uniform(-1, 1, n)  # x0 may only touch output 0
    bumped = predict(res.store, X2)
    assert np.array_equal(base[:, 1], bumped[:, 1])
    assert np.array_equal(base[:, 2], bumped[:, 2])


def test_monotone_step_splits_respect_ordering():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 1, 300)
    y = 2 * x + rng.normal(scale=0.3, size=300)
    ds = make_dataset(x, y)
    spec = ConstraintSpec.default(
        ds, overrides={"x0": FeatureConstraint(monotone=1, max_degree=0)}
    )
    cfg = TrainConfig(
        max_iterations=60, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    for rec in res.log:
        if rec.kind == "split" and rec.degree == 0:
            assert rec.gamma_right - rec.gamma_left >= -1e-9
    sv = res.store.params[0][0].step_values
    assert np.diff(sv).min() >= -1e-9


# ---------------------------------------------------------------------------
# intercept initialization and empty-candidate stops


def test_zero_iterations_regression_intercept_is_train_mean():
    ds = wiggly_dataset(100, 22)
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert res.store.intercepts[0] == ds.y.mean()
    assert res.n_iterations == 0 and res.log == []


def test_zero_iterations_multiclass_intercepts_are_log_priors():
    rng = np.random.default_rng(23)
    y = np.repeat([0, 1, 2], [60, 30, 10])
    ds = make_dataset(rng.normal(size=(100, 2)), y, task="multiclass")
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    p = link_apply("multiclass", res.store.intercepts.reshape(1, -1))[0]
    assert p == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)


def test_zero_iterations_binary_intercept_is_log_odds():
    rng = np.random.default_rng(24)
    y = np.array([0] * 30 + [1] * 70)
    ds = make_dataset(rng.normal(size=(100, 1)), y, task="binary")
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert res.store.intercepts[0] == pytest.approx(math.log(0.7 / 0.3), abs=1e-12)


def test_training_stops_when_no_candidate_is_feasible():
    ds = wiggly_dataset(30, 25, k=1)
    cfg = TrainConfig(
        min_data_in_leaf=20,
        max_iterations=50,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, config=cfg)  # S=-1: no global fallback exists either
    assert res.log == [] and res.n_iterations == 0


def test_binary_training_smoke():
    rng = np.random.default_rng(26)
    x = rng.uniform(-2, 2, 200)
    p = 1.0 / (1.0 + np.exp(-2 * x))
    y = (rng.uniform(size=200) < p).astype(int)
    ds = make_dataset(x, y, task="binary")
    cfg = TrainConfig(
        max_iterations=100, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    probs = link_apply("binary", predict(res.store, ds.X))
    assert np.all((probs > 0) & (probs < 1))
    base = loss_eval("binary", ds.y, np.full((200, 1), res.store.intercepts[0]))
    assert res.train_loss < base


# ---------------------------------------------------------------------------
# log serialization


def test_training_log_ndjson_schema(tmp_path):
    ds = wiggly_dataset(150, 27)
    cfg = TrainConfig(max_iterations=10, early_stopping_patience=5, seed=1)
    res = train(ds, config=cfg)
    path = tmp_path / "log.ndjson"
    write_log(res.log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(res.log)
    keys = [
        "iteration", "output", "feature", "degree", "kind", "threshold",
        "gamma_left", "gamma_right", "gain", "train_loss", "valid_loss",
    ]
    for line in lines:
        rec = json.loads(line)
        assert list(rec.keys()) == keys
        assert rec["iteration"] >= 1


def test_an_explicit_validation_set_of_no_rows_counts_as_none():
    ds = wiggly_dataset(200, 21)
    empty = ds.subset(np.arange(0))
    cfg = TrainConfig(max_iterations=20, early_stopping_patience=0, validation_fraction=0.3)
    res = train(ds, config=cfg, valid=empty)
    # the empty set is taken as given, so no rows are carved off for validation
    alone = train(ds, config=TrainConfig(max_iterations=20, early_stopping_patience=0,
                                         validation_fraction=0.0))
    assert dumps_model(res.store) == dumps_model(alone.store)
    assert all(rec.valid_loss is None for rec in res.log)
    with pytest.raises(ConfigError, match=re.escape(
            "early stopping requires a non-empty validation split; "
            "set early_stopping_patience=0 or provide validation data")):
        train(ds, config=TrainConfig(max_iterations=20, early_stopping_patience=5), valid=empty)
