"""Second-order boosting of depth-1 polynomial trees.

Each iteration scores, per output, every admissible candidate update:

* a degree-0 split on the fine grid (only when S = -1),
* a degree-d split on the coarse grid for each d in (S, D],
* a global degree-d term for each d <= S (smoothness-protected degrees).

Split leaf values are Newton steps on derivative sums taken relative to the
split point, gamma = -soft_threshold(sum g*(x-u)^d, l1) / (sum h*(x-u)^2d + l2),
so both leaves vanish at the threshold and updates of degree >= 1 keep the
shape function continuous. Monotonicity and curvature clamp each candidate's
leaf values into a feasible interval before gains are compared.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import BinLayout, Dataset, FeatureBins, build_bin_layout, split_indices
from .errors import ConfigError, NumericError
from .losses import derivatives, link_apply, loss_eval
from .model import (
    ConstraintSpec,
    FeatureConstraint,
    ParameterStore,
    accumulate_global,
    accumulate_update,
    fine_code,
    locate,
    shift,
    zero_init,
)

H_FLOOR = 1e-12
FEAS_SLACK = 1e-10  # constraints enforced to >= -FEAS_SLACK; tests allow -1e-9


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    l1: float = 0.001
    l2: float = 0.01
    min_data_in_leaf: int = 10
    max_iterations: int = 25000
    early_stopping_patience: int = 100
    validation_fraction: float = 0.125
    seed: int = 0

    def validate(self) -> None:
        errs = []
        if not 0.0 < self.learning_rate <= 1.0:
            errs.append(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.l1 < 0.0:
            errs.append(f"l1 must be >= 0, got {self.l1}")
        if self.l2 < 0.0:
            errs.append(f"l2 must be >= 0, got {self.l2}")
        if self.min_data_in_leaf < 1:
            errs.append(f"min_data_in_leaf must be >= 1, got {self.min_data_in_leaf}")
        if self.max_iterations < 0:
            errs.append(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.early_stopping_patience < 0:
            errs.append(f"early_stopping_patience must be >= 0")
        if not 0.0 <= self.validation_fraction < 1.0:
            errs.append(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )
        if errs:
            raise ConfigError("; ".join(errs))


@dataclass
class SplitCandidate:
    output: int
    feature: int
    degree: int
    kind: str  # "split" | "global"
    threshold: float | None
    gamma_left: float
    gamma_right: float | None
    gain: float
    n_left: int
    n_right: int


@dataclass
class LogRecord:
    iteration: int
    output: int
    feature: str
    degree: int
    kind: str
    threshold: float | None
    gamma_left: float
    gamma_right: float | None
    gain: float
    train_loss: float
    valid_loss: float | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "iteration": self.iteration,
                "output": self.output,
                "feature": self.feature,
                "degree": self.degree,
                "kind": self.kind,
                "threshold": self.threshold,
                "gamma_left": self.gamma_left,
                "gamma_right": self.gamma_right,
                "gain": self.gain,
                "train_loss": self.train_loss,
                "valid_loss": self.valid_loss,
            }
        )


@dataclass
class TrainResult:
    store: ParameterStore
    initial_store: ParameterStore
    log: list[LogRecord]
    best_iteration: int
    n_iterations: int
    train_loss: float
    valid_loss: float | None
    learning_rate: float = 0.1

    def replay_to(self, iteration: int) -> ParameterStore:
        """Model state after `iteration` full iterations, reconstructed by
        replaying the log from the initial state; bit-identical to training."""
        return replay(self.initial_store, self.log, iteration, self.learning_rate)


def write_log(log: list[LogRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in log:
            fh.write(rec.to_json())
            fh.write("\n")


# ---------------------------------------------------------------------------
# leaf values and gains


def leaf_value(sum_g, sum_h, l1: float = 0.0, l2: float = 0.0):
    """Regularized Newton step: -soft_threshold(sum_g, l1) / (sum_h + l2)."""
    sg = np.asarray(sum_g, dtype=float)
    sh = np.asarray(sum_h, dtype=float)
    mag = np.maximum(np.abs(sg) - l1, 0.0)
    den = np.maximum(sh + l2, H_FLOOR)
    out = -np.sign(sg) * mag / den
    return float(out) if out.ndim == 0 else out


def candidate_gain(gamma_left, sg_left, sh_left, gamma_right, sg_right, sh_right):
    """Predicted loss decrease of the quadratic model at the given leaf values."""
    return -(
        gamma_left * sg_left
        + 0.5 * gamma_left * gamma_left * sh_left
        + gamma_right * sg_right
        + 0.5 * gamma_right * gamma_right * sh_right
    )


# ---------------------------------------------------------------------------
# per-feature workspace


def _powers(v: np.ndarray, top: int, first=1.0) -> np.ndarray:
    """Rows first*v^0..first*v^top on a new first axis, each the previous
    row times v."""
    out = np.empty((top + 1,) + v.shape)
    out[0] = first
    for p in range(1, top + 1):
        np.multiply(out[p - 1], v, out=out[p])
    return out


class _FeatureWork:
    """Cached per-feature structures for the candidate scans."""

    def __init__(self, x: np.ndarray, fb: FeatureBins, fc: FeatureConstraint):
        self.x = x
        self.fb = fb
        self.fc = fc
        self.split_degrees = list(range(max(fc.smoothness + 1, 0), fc.max_degree + 1))
        self.high_degrees = [d for d in self.split_degrees if d >= 1]  # coarse-grid splits
        self.global_degrees = list(range(0, fc.smoothness + 1))

        self.fcodes = fine_code(fb, x)
        piece, t = locate(fb, x, self.fcodes)
        counts = np.bincount(self.fcodes, minlength=fb.n_fine_bins)
        self.n_left_fine = np.cumsum(counts)[:-1]  # per fine edge

        ccounts = np.bincount(piece, minlength=fb.n_coarse_bins)
        self.n_left_coarse = np.cumsum(ccounts)[:-1]  # per coarse edge

        self.lower = fb.coarse_lower_edges
        self.widths = np.append(fb.coarse_edges, fb.x_max) - self.lower

        self.max_split_deg = max(self.high_degrees, default=0)
        self.max_global_deg = max(self.global_degrees, default=0)

        self.rpow = None
        if self.max_split_deg >= 1:
            self._build_blocks(piece, t, ccounts)
            self._build_tensors()
        if self.max_global_deg >= 1:
            self.rpow = _powers(x - fb.x_min, 2 * self.max_global_deg)

        # filled on first use; regression's h never changes, so its coarse
        # moments and fine-grid cumsum are computed once
        self._static_h = None
        self._static_hf = None

    def _build_blocks(self, piece: np.ndarray, t: np.ndarray, counts: np.ndarray) -> None:
        """Rows sorted stably by coarse piece and cut into blocks of at most
        `size` rows; a block never holds two pieces, so a piece's moments are
        the sums of its blocks' products.

        slot_row[b, c] is the row in slot c of block b, and tblock[b, m, c]
        its t^m for m = 0..max_split_deg. The last block of a piece pads out
        with zero powers and the piece's last row, so a non-finite weight
        stays in its own piece. Blocks of n / (4 * pieces) rows keep the
        padding under a quarter of the rows; they hold at least 32, because
        each block is one BLAS call, and on small data the calls would cost
        more than the padded slots do."""
        n_pieces = counts.size
        size = max(-(-t.size // (4 * n_pieces)), 32)
        n_blocks = -(-counts // size)
        self.nonempty = np.flatnonzero(counts)
        first_block = np.cumsum(n_blocks) - n_blocks
        self.block_start = first_block[self.nonempty]
        # a key of 16 bits or fewer sorts by radix, several times faster
        order = np.argsort(piece.astype(np.min_scalar_type(n_pieces)), kind="stable")
        # the q-th row of piece p goes to slot q of the piece's first block;
        # every other slot starts as padding on the piece's last row
        start = np.cumsum(counts) - counts
        slots = (n_blocks * size)[self.nonempty]
        row = np.repeat(order[start[self.nonempty] + counts[self.nonempty] - 1], slots)
        dest = np.arange(t.size) + np.repeat(first_block * size - start, counts)
        row[dest] = order
        real = np.zeros(row.size, dtype=bool)
        real[dest] = True
        self.slot_row = row.reshape(-1, size)
        T = _powers(t[self.slot_row], self.max_split_deg, real.reshape(-1, size))
        self.tblock = T.transpose(1, 0, 2)

    def _build_tensors(self) -> None:
        """Binomial recombination weights: split sums of g*(x-u)^d over one side
        are rebuilt from per-piece moments of g*t^m, t the piece-local offset.
        Working per piece keeps every term at the scale of its own piece, which
        avoids the cancellation blowup of global-monomial prefix sums."""
        edges = self.fb.coarse_edges
        mj = edges.size
        mb = self.lower.size
        dmax = self.max_split_deg
        if mj == 0:
            self.Wg = self.Wh = None
            return
        delta = self.lower[:, None] - edges[None, :]  # (mb, mj)
        left = (np.arange(mb)[:, None] <= np.arange(mj)[None, :]).astype(float)
        # each side is summed directly from its own pieces: deriving one side
        # as total-minus-other cancels catastrophically when that side is tiny
        sides = np.stack([left, 1.0 - left])[:, None]  # (side, 1, piece, threshold)
        nd = len(self.high_degrees)
        self.Wg = np.zeros((2, nd, mj, mb, dmax + 1))  # (side, degree, threshold, piece, m)
        self.Wh = np.zeros((2, nd, mj, mb, 2 * dmax + 1))
        for di, d in enumerate(self.high_degrees):
            self.Wg[:, di, :, :, : d + 1] = (shift(delta, d) * sides).transpose(0, 3, 2, 1)
            self.Wh[:, di, :, :, : 2 * d + 1] = (shift(delta, 2 * d) * sides).transpose(0, 3, 2, 1)

    def moments(self, weights: np.ndarray, max_m: int) -> np.ndarray:
        """Per-coarse-piece sums of weights * t^m for m = 0..max_m, where
        max_m <= 2 * max_split_deg.

        One gather puts the weights in block order and one stacked product
        gives every block's sums for m <= max_split_deg; the higher powers
        come from a second product with weights * t^max_split_deg. Blocks
        add up per piece in order, and an empty piece sums to zero."""
        dmax, T = self.max_split_deg, self.tblock
        w = weights.take(self.slot_row)[..., None]
        per_block = T[:, : max_m + 1] @ w
        if max_m > dmax:
            high = T[:, 1 : max_m - dmax + 1] @ (w * T[:, dmax, :, None])
            per_block = np.concatenate((per_block, high), axis=1)
        out = np.zeros((self.fb.n_coarse_bins, max_m + 1))
        out[self.nonempty] = np.add.reduceat(per_block[..., 0], self.block_start)
        return out

    def fine_sums(self, g: np.ndarray, h: np.ndarray, h_static: bool):
        """Left/right sums of g and h at every fine threshold: (sgl, sgr, shl, shr)."""
        nf = self.fb.n_fine_bins
        cg = np.cumsum(np.bincount(self.fcodes, weights=g, minlength=nf))
        if h_static:
            if self._static_hf is None:
                self._static_hf = np.cumsum(np.bincount(self.fcodes, weights=h, minlength=nf))
            ch = self._static_hf
        else:
            ch = np.cumsum(np.bincount(self.fcodes, weights=h, minlength=nf))
        return cg[:-1], cg[-1] - cg[:-1], ch[:-1], ch[-1] - ch[:-1]

    def split_sums(self, g: np.ndarray, h: np.ndarray, h_static: bool) -> np.ndarray:
        """Left/right split sums for every coarse threshold and split degree.

        Returns (4, len(high_degrees), n_thresholds): sgl, sgr, shl, shr."""
        dmax = self.max_split_deg
        G = self.moments(g, dmax)
        if h_static:
            if self._static_h is None:
                self._static_h = self.moments(h, 2 * dmax)
            H = self._static_h
        else:
            H = self.moments(h, 2 * dmax)
        return np.concatenate((
            np.einsum("sdjbm,bm->sdj", self.Wg, G),
            np.einsum("sdjbm,bm->sdj", self.Wh, H),
        ))


# ---------------------------------------------------------------------------
# constraint feasibility


def _slopes(c: np.ndarray):
    """Local coefficients of f' from those c[0..3] of a cubic f."""
    return c[1], 2.0 * c[2], 3.0 * c[3]


def _bends(c: np.ndarray):
    """Local coefficients of f'' from those c[0..3] of a cubic f."""
    return 2.0 * c[2], 6.0 * c[3]


def _clip(gamma, lo, hi):
    """min(max(gamma, lo), hi) elementwise, with the tie and NaN rules of
    Python's min/max so clamped values match a scalar clamp bit for bit."""
    gamma = np.where(lo > gamma, lo, gamma)
    return np.where(hi < gamma, hi, gamma)


class _ClampRows:
    """Signed per-piece coefficients of f' and f'' for a batch of clamp rows.

    A row adds lr*gamma*(x-u)^d over the coarse pieces in its mask: the left
    (pieces 0..j) or right (pieces j+1..) side of coarse threshold j, or all
    pieces for a global term (u = x_min). Arrays are (sides, thresholds,
    pieces). B and C hold sign*f' and sign*f'' of the current state (local
    coefficients, shared by every row); A and D hold what one unit of gamma
    adds to them. A, D and the mask are fixed for a fit: rows built with
    coeffs None are bound to each scan's state by `at`.
    """

    def __init__(self, wk: _FeatureWork, coeffs: np.ndarray | None, d: int, lr: float,
                 j: np.ndarray | None):
        self.m_sign, self.c_sign = m_sign, c_sign = wk.fc.monotone, wk.fc.curvature
        n_pieces = wk.lower.size
        if j is None:
            self.mask = np.ones((1, 1, n_pieces), dtype=bool)
            u = np.full((1, 1), wk.fb.x_min)
        else:
            left = np.arange(n_pieces) <= j[:, None]
            self.mask = np.stack([left, ~left])
            u = np.broadcast_to(wk.fb.coarse_edges[j], (2, j.size))
        self.w = wk.widths
        self.mono = bool(m_sign)
        self.curv = bool(c_sign) and d >= 2
        delta = wk.lower - u[..., None]
        unit = np.zeros((4,) + delta.shape)  # local coefficients of lr*(x-u)^d
        unit[: d + 1] = shift(delta, d, lr)
        if self.mono:
            self.A = tuple(m_sign * a for a in _slopes(unit))
        if self.curv:
            self.D = tuple(c_sign * a for a in _bends(unit))
        if coeffs is not None:
            self._bind(coeffs)

    def _bind(self, coeffs: np.ndarray) -> None:
        if self.mono:
            self.B = tuple(self.m_sign * b for b in _slopes(coeffs.T))
        if self.curv:
            self.C = tuple(self.c_sign * b for b in _bends(coeffs.T))

    def at(self, coeffs: np.ndarray) -> "_ClampRows":
        """These rows against the state with local coefficients coeffs."""
        out = copy.copy(self)
        out._bind(coeffs)
        return out

    def take(self, index) -> "_ClampRows":
        """The rows selected by index, an index into (sides, thresholds)."""
        out = copy.copy(self)
        out.mask = self.mask[index]
        if self.mono:
            out.A = tuple(a[index] for a in self.A)
        if self.curv:
            out.D = tuple(a[index] for a in self.D)
        return out


def _feasible_interval(r: _ClampRows, gamma: np.ndarray):
    """Each row's feasible interval [lo, hi] for the proposals gamma.

    Endpoint constraints are linear in gamma and exact; the interior minimum
    of the (quadratic) first derivative moves with gamma, so it is handled by
    a short fixed-point refinement around each row's clamped proposal. The
    interval always contains 0 because the pre-update state is feasible.
    """
    lo = np.full(gamma.shape, -np.inf)
    hi = np.full(gamma.shape, np.inf)

    def cut(lo, hi, a, b, mask):
        # intersect with the half-lines {gamma : b + a*gamma >= -slack}
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (-b - FEAS_SLACK) / a
        lo_new = np.where(mask & (a > 0.0), bound, -np.inf).max(axis=-1)
        hi_new = np.where(mask & (a < 0.0), bound, np.inf).min(axis=-1)
        return np.where(lo_new > lo, lo_new, lo), np.where(hi_new < hi, hi_new, hi)

    w = r.w
    if r.mono:
        A0, A1, A2 = r.A
        B0, B1, B2 = r.B
        lo, hi = cut(lo, hi, A0, B0, r.mask)
        lo, hi = cut(lo, hi, A0 + A1 * w + A2 * w * w, B0 + B1 * w + B2 * w * w, r.mask)
    if r.curv:
        C0, C1 = r.C
        D0, D1 = r.D
        lo, hi = cut(lo, hi, D0, C0, r.mask)
        lo, hi = cut(lo, hi, D0 + D1 * w, C0 + C1 * w, r.mask)

    # without quadratic terms f' is linear on each piece: its endpoints bound it
    if r.mono and (np.any(A2 != 0.0) or np.any(B2 != 0.0)):
        # Rows refine in lockstep. A row whose refinement has stopped (no
        # violation, or an unchanged clamp) is at a fixed point: repeating
        # the step recomputes the same cuts and the same clamp, so each row
        # ends where a refinement of that row alone would end.
        gamma_c = np.where(lo <= hi, _clip(gamma, lo, hi), 0.0)
        for _ in range(8):
            g = gamma_c[..., None]
            q2 = B2 + g * A2
            q1 = B1 + g * A1
            q0 = B0 + g * A0
            pos = q2 > 0.0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tstar = np.where(pos, -q1 / (2.0 * q2), -1.0)
                qmin = q0 - np.where(pos, q1 * q1 / (4.0 * np.maximum(q2, 1e-300)), 0.0)
                viol = r.mask & pos & (tstar > 0.0) & (tstar < w) & (qmin < -FEAS_SLACK)
                if not viol.any():
                    break
                a_t = A0 + A1 * tstar + A2 * tstar * tstar
                b_t = B0 + B1 * tstar + B2 * tstar * tstar
            lo, hi = cut(lo, hi, a_t, b_t, viol)
            new_c = np.where(lo <= hi, _clip(gamma_c, lo, hi), 0.0)
            if np.all(new_c == gamma_c):
                break
            gamma_c = new_c
    empty = lo > hi
    return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)


def _worst_after(r: _ClampRows, gamma: np.ndarray) -> np.ndarray:
    """Exact post-update worst of sign*f' and sign*f'' over each row's pieces."""
    g = gamma[..., None]
    w = r.w
    vals = []
    if r.mono:
        q0 = r.B[0] + g * r.A[0]
        q1 = r.B[1] + g * r.A[1]
        q2 = r.B[2] + g * r.A[2]
        pos = q2 > 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tstar = np.where(pos, -q1 / (2.0 * np.where(pos, q2, 1.0)), -1.0)
            interior = q0 + q1 * tstar + q2 * tstar * tstar
        inside = pos & (tstar > 0.0) & (tstar < w)
        vals += [q0, q0 + q1 * w + q2 * w * w, np.where(inside, interior, np.inf)]
    if r.curv:
        q0 = r.C[0] + g * r.D[0]
        q1 = r.C[1] + g * r.D[1]
        vals += [q0, q0 + q1 * w]
    worst = np.full(gamma.shape, np.inf)
    for v in vals:
        worst = np.minimum(worst, np.where(r.mask, v, np.inf).min(axis=-1))
    return worst


def _clamp(wk: _FeatureWork, coeffs: np.ndarray, cfg: TrainConfig, d: int,
           j: np.ndarray | None, gamma: np.ndarray, sums=(),
           units: _ClampRows | None = None) -> np.ndarray:
    """Clamp leaf-value proposals gamma (sides, thresholds) into their
    feasible intervals, apply the degree-1 kink rule, then halve each
    threshold's sides together until the exact check passes; a threshold
    still failing after 60 halvings becomes a no-op. j holds the coarse
    threshold indices, or is None for a global term (one row); sums are the
    split sums (sgl, shl, sgr, shr) per threshold, used by the kink rule.
    units are the unbound rows of (d, j) when the caller keeps them."""
    if units is None:
        units = _ClampRows(wk, None, d, cfg.learning_rate, j)
    rows = units.at(coeffs)
    lo, hi = _feasible_interval(rows, gamma)
    gamma = _clip(gamma, lo, hi)
    c_sign = wk.fc.curvature
    if j is not None and d == 1 and c_sign:
        # a degree-1 split kinks f'; the kink must bend with the curvature sign
        bad = c_sign * (gamma[1] - gamma[0]) < 0.0
        if bad.any():
            sgl, shl, sgr, shr = sums
            pooled = leaf_value(sgl + sgr, shl + shr, cfg.l1, cfg.l2)
            lo_p = np.where(lo[1] > lo[0], lo[1], lo[0])
            hi_p = np.where(hi[1] < hi[0], hi[1], hi[0])
            pooled = np.where(lo_p <= hi_p, _clip(pooled, lo_p, hi_p), 0.0)
            gamma = np.where(bad, pooled, gamma)

    todo = np.arange(gamma.shape[1])
    for _ in range(60):
        sub = rows if todo.size == gamma.shape[1] else rows.take(np.s_[:, todo])
        ok = _worst_after(sub, gamma[:, todo]).min(axis=0) >= -FEAS_SLACK
        todo = todo[~ok]
        if todo.size == 0:
            return gamma
        gamma[:, todo] *= 0.5
    gamma[:, todo] = 0.0
    return gamma


# ---------------------------------------------------------------------------
# candidate enumeration


class _Candidates:
    """Every candidate update of one output, laid out end to end.

    Rows run by feature, then degree, then ascending threshold. A block of
    rows is a global degree-d term (one row, right side zero), the fine
    degree-0 scan, or one coarse degree-d scan. The layout is fixed for a
    whole fit; `fill` writes each iteration's split sums into `sums`, rows
    (sgl, sgr, shl, shr). Because rows are in (feature, degree, threshold)
    order, the first argmax of the gains picks the lowest such triple among
    equal gains.
    """

    def __init__(self, works: list[_FeatureWork], allow: np.ndarray, min_leaf: int, n: int):
        self.n = n
        self.parts = []  # (work, [(degree, row)] of globals, fine slice, coarse slice)
        self.pools = []  # (monotone sign, slice) of monotone fine scans
        clamps = []  # (work, feature, degree, slice, is global) of constrained degree >= 1
        cols = []  # per block: feature, degree, threshold (NaN: global), n_left

        def block(k, d, edges, n_left):
            m = n_left.size
            start = sum(c[0].size for c in cols)
            cols.append((np.full(m, k), np.full(m, d), edges, n_left))
            return slice(start, start + m)

        for k, wk in enumerate(works):
            if not allow[k]:
                continue
            fb, fc = wk.fb, wk.fc
            constrained = bool(fc.monotone or fc.curvature)
            glob = []
            for d in wk.global_degrees:
                sl = block(k, d, np.array([np.nan]), np.array([n]))
                glob.append((d, sl.start))
                if constrained and d >= 1:
                    clamps.append((wk, k, d, sl, True))
            fine = coarse = None
            if 0 in wk.split_degrees and fb.fine_edges.size > 0:
                fine = block(k, 0, fb.fine_edges, wk.n_left_fine)
                if fc.monotone:
                    self.pools.append((fc.monotone, fine))
            high = wk.high_degrees
            if high and fb.coarse_edges.size > 0:
                scans = [block(k, d, fb.coarse_edges, wk.n_left_coarse) for d in high]
                coarse = slice(scans[0].start, scans[-1].stop)
                if constrained:
                    clamps += [(wk, k, d, sl, False) for d, sl in zip(high, scans)]
            self.parts.append((wk, glob, fine, coarse))

        cols = [np.concatenate(c) for c in zip(*cols)] if cols else [np.empty(0)] * 4
        self.feature, self.degree, self.threshold, self.n_left = cols
        self.is_global = np.isnan(self.threshold)
        nl = self.n_left
        self.valid = self.is_global | ((nl >= min_leaf) & (n - nl >= min_leaf))
        self.sums = np.zeros((4, self.valid.size))
        # (work, feature, degree, slice, j): j the valid thresholds of a
        # split scan, every one clamped before gains are compared, or None
        # for a global term; scans without a valid threshold are left out
        self.clamps = []
        for wk, k, d, sl, is_global in clamps:
            j = None if is_global else np.flatnonzero(self.valid[sl])
            if j is None or j.size:
                self.clamps.append((wk, k, d, sl, j))
        self._units = (None, [])

    def clamp_units(self, lr: float) -> list[_ClampRows]:
        """Unbound clamp rows of every entry of `clamps`, at learning rate
        lr; they are fixed for a fit, so they are built once."""
        if self._units[0] != lr:
            self._units = (lr, [_ClampRows(wk, None, d, lr, j) for wk, _, d, _, j in self.clamps])
        return self._units[1]

    def fill(self, g: np.ndarray, h: np.ndarray, h_static: bool) -> np.ndarray:
        """This iteration's split sums of every row; a global row's right
        side stays zero."""
        out = self.sums
        for wk, glob, fine, coarse in self.parts:
            for d, r in glob:
                if d == 0:
                    out[0, r], out[2, r] = g.sum(), h.sum()
                else:
                    # einsum, not a 1-D `@`: BLAS splits a long dot product
                    # across threads, and its last bits follow the thread count
                    out[0, r] = np.einsum("n,n->", g, wk.rpow[d])
                    out[2, r] = np.einsum("n,n->", h, wk.rpow[2 * d])
            if fine is not None:
                out[:, fine] = wk.fine_sums(g, h, h_static)
            if coarse is not None:
                out[:, coarse] = wk.split_sums(g, h, h_static).reshape(4, -1)
        return out


def _best_for_output(
    i: int,
    cands: _Candidates,
    g_i: np.ndarray,
    h_i: np.ndarray,
    store: ParameterStore,
    cfg: TrainConfig,
    h_static: bool,
) -> SplitCandidate | None:
    """Score every candidate of output i in one pass and return the best,
    or None when no candidate has a finite positive gain."""
    if cands.valid.size == 0:
        return None
    l1, l2 = cfg.l1, cfg.l2
    sums = cands.fill(g_i, h_i, h_static)
    gamma = leaf_value(sums[:2], sums[2:], l1, l2)  # (left, right) per row
    gamma[1, cands.is_global] = 0.0

    # block-local fixes, each writing into its block's slice of gamma
    for sign, sl in cands.pools:
        gl, gr = gamma[:, sl]
        bad = cands.valid[sl] & (sign * (gr - gl) < 0.0)
        if bad.any():
            sgl, sgr, shl, shr = sums[:, sl]
            pooled = leaf_value(sgl + sgr, shl + shr, l1, l2)
            gamma[:, sl] = np.where(bad, pooled, gamma[:, sl])
    for (wk, k, d, sl, j), units in zip(cands.clamps, cands.clamp_units(cfg.learning_rate)):
        coeffs = store.params[i][k].poly_coeffs
        if j is None:
            gamma[:1, sl] = _clamp(wk, coeffs, cfg, d, None, gamma[:1, sl].copy(), units=units)
            continue
        sgl, sgr, shl, shr = sums[:, sl][:, j]
        block = gamma[:, sl]
        block[:, j] = _clamp(wk, coeffs, cfg, d, j, block[:, j], (sgl, shl, sgr, shr), units)

    gains = candidate_gain(gamma[0], sums[0], sums[2], gamma[1], sums[1], sums[3])
    gains = np.where(cands.valid & np.isfinite(gains), gains, -np.inf)
    j = int(np.argmax(gains))
    if not gains[j] > 0.0:
        return None
    k, d = int(cands.feature[j]), int(cands.degree[j])
    if cands.is_global[j]:
        return SplitCandidate(i, k, d, "global", None, float(gamma[0, j]), None,
                              float(gains[j]), cands.n, 0)
    n_left = int(cands.n_left[j])
    return SplitCandidate(
        i, k, d, "split", float(cands.threshold[j]),
        float(gamma[0, j]), float(gamma[1, j]), float(gains[j]), n_left, cands.n - n_left,
    )


# ---------------------------------------------------------------------------
# applying updates


def _apply_candidate(
    store: ParameterStore,
    cand: SplitCandidate,
    lr: float,
    works: list[_FeatureWork],
    F: np.ndarray,
    X_valid: np.ndarray | None,
    F_valid: np.ndarray | None,
) -> None:
    """Fold the update into the store and add lr*gamma*(x-u)^d to the
    training and validation scores, gamma_left where x < u and gamma_right
    elsewhere; a global term is one side with u the feature minimum."""
    i, k, d = cand.output, cand.feature, cand.degree
    gl = cand.gamma_left
    is_global = cand.kind == "global"
    if is_global:
        accumulate_global(store, i, k, d, gl, lr)
        u = works[k].fb.x_min
    else:
        u, gr = cand.threshold, cand.gamma_right
        accumulate_update(store, i, k, d, u, gl, gr, lr)
    targets = [(works[k].x, F)]
    if F_valid is not None:
        targets.append((X_valid[:, k], F_valid))
    for x, scores in targets:
        s = x - u  # one pass over the (strided) column; s < 0 exactly when x < u
        # an unnamed select frees its buffer for the next product to reuse;
        # a named one measured twice as slow at 14k rows
        scores[:, i] += lr * (gl if is_global else np.where(s < 0.0, gl, gr)) * s**d


def _replay_one(store: ParameterStore, rec: LogRecord, lr: float) -> None:
    k = store.feature_names.index(rec.feature)
    if rec.kind == "global":
        accumulate_global(store, rec.output, k, rec.degree, rec.gamma_left, lr)
    else:
        accumulate_update(
            store, rec.output, k, rec.degree, rec.threshold,
            rec.gamma_left, rec.gamma_right, lr,
        )


def replay(
    initial_store: ParameterStore,
    log: list[LogRecord],
    iteration: int,
    learning_rate: float = 0.1,
) -> ParameterStore:
    """Reconstruct the parameter state after `iteration` full iterations by
    replaying logged updates on a copy of the initial state. The arithmetic
    mirrors training exactly, so the result is bit-identical."""
    out = initial_store.copy()
    for rec in log:
        if rec.iteration <= iteration:
            _replay_one(out, rec, learning_rate)
    return out


# ---------------------------------------------------------------------------
# training loop


def _initial_intercepts(task: str, y: np.ndarray, n_outputs: int) -> np.ndarray:
    if task == "regression":
        return np.array([float(np.mean(y))])
    if task == "binary":
        p = float(np.clip(np.mean(y), 1e-12, 1.0 - 1e-12))
        return np.array([math.log(p / (1.0 - p))])
    counts = np.bincount(y.astype(int), minlength=n_outputs).astype(float)
    priors = np.clip(counts / max(y.size, 1), 1e-12, None)
    return np.log(priors)


def train(
    dataset: Dataset,
    layout: BinLayout | None = None,
    constraints: ConstraintSpec | None = None,
    config: TrainConfig | None = None,
    valid: Dataset | None = None,
) -> TrainResult:
    """Fit an additive model by second-order boosting.

    When `valid` is None and validation_fraction > 0, a validation split is
    carved out of `dataset` (stratified by class for classification). Bin
    edges always come from `dataset` as handed in, before any carving.
    """
    cfg = config or TrainConfig()
    cfg.validate()
    dataset.validate()
    if valid is not None:
        valid.validate()
    if layout is None:
        layout = build_bin_layout(dataset)
    if constraints is None:
        constraints = ConstraintSpec.default(dataset)
    constraints.validate(dataset.feature_names, dataset.n_outputs)

    if valid is None and cfg.validation_fraction > 0.0:
        labels = dataset.y if dataset.task != "regression" else None
        tr_idx, va_idx, _ = split_indices(
            dataset.X.shape[0],
            (1.0 - cfg.validation_fraction, cfg.validation_fraction, 0.0),
            cfg.seed,
            labels=labels,
        )
        ds_train = dataset.subset(tr_idx)
        ds_valid = dataset.subset(va_idx)
    else:
        ds_train = dataset
        ds_valid = valid

    use_early_stop = cfg.early_stopping_patience > 0
    if use_early_stop and (ds_valid is None or ds_valid.X.shape[0] == 0):
        raise ConfigError(
            "early stopping requires a non-empty validation split; "
            "set early_stopping_patience=0 or provide validation data"
        )

    task = dataset.task
    intercepts = _initial_intercepts(task, ds_train.y, dataset.n_outputs)
    store = zero_init(layout, task, dataset.n_outputs, dataset.feature_names,
                      constraints, dataset.target_name)
    store.intercepts = intercepts.copy()
    initial_store = store.copy()

    works = [
        _FeatureWork(ds_train.X[:, k], layout.features[k], constraints.features[k])
        for k in range(len(dataset.feature_names))
    ]
    h_static = task == "regression"

    J = dataset.n_outputs
    n_tr = ds_train.X.shape[0]
    cands = [
        _Candidates(works, constraints.allow_mask[i], cfg.min_data_in_leaf, n_tr)
        for i in range(J)
    ]
    F = np.tile(intercepts, (n_tr, 1))
    if ds_valid is not None and ds_valid.X.shape[0] > 0:
        F_valid = np.tile(intercepts, (ds_valid.X.shape[0], 1))
        X_valid = ds_valid.X
    else:
        F_valid = None
        X_valid = None

    log: list[LogRecord] = []
    # the link of the training scores feeds both the loss after an update
    # and the derivatives of the next iteration, so it is computed once
    p = None if task == "regression" else link_apply(task, F)
    train_loss = loss_eval(task, ds_train.y, F, p)
    valid_loss = loss_eval(task, ds_valid.y, F_valid) if F_valid is not None else None
    if not math.isfinite(train_loss) or (valid_loss is not None and not math.isfinite(valid_loss)):
        raise NumericError(
            "non-finite starting loss: the targets hold NaN/inf or values too large to square"
        )
    best_valid = valid_loss if valid_loss is not None else math.inf
    best_iter = 0
    last_iter = 0

    for it in range(1, cfg.max_iterations + 1):
        batch = derivatives(task, ds_train.y, F, p)
        g, h = batch.g, batch.h
        picks: list[SplitCandidate] = []
        for i in range(J):
            cand = _best_for_output(i, cands[i], g[:, i], h[:, i], store, cfg, h_static)
            if cand is not None:
                picks.append(cand)
        if not picks:
            last_iter = it - 1
            break
        for cand in picks:
            _apply_candidate(store, cand, cfg.learning_rate, works, F, X_valid, F_valid)
        p = None if task == "regression" else link_apply(task, F)
        train_loss = loss_eval(task, ds_train.y, F, p)
        valid_loss = loss_eval(task, ds_valid.y, F_valid) if F_valid is not None else None
        if not math.isfinite(train_loss) or (
            valid_loss is not None and not math.isfinite(valid_loss)
        ):
            raise NumericError(f"non-finite loss at iteration {it}")
        for cand in picks:
            log.append(
                LogRecord(
                    it, cand.output, dataset.feature_names[cand.feature],
                    cand.degree, cand.kind, cand.threshold,
                    cand.gamma_left, cand.gamma_right, cand.gain,
                    train_loss, valid_loss,
                )
            )
        last_iter = it
        if F_valid is not None and valid_loss < best_valid:
            best_valid = valid_loss
            best_iter = it
        if use_early_stop and it - best_iter >= cfg.early_stopping_patience:
            break

    if not use_early_stop:
        best_iter = last_iter

    if best_iter < last_iter:
        store = replay(initial_store, log, best_iter, cfg.learning_rate)

    result = TrainResult(
        store=store,
        initial_store=initial_store,
        log=log,
        best_iteration=best_iter,
        n_iterations=last_iter,
        train_loss=train_loss,
        valid_loss=valid_loss,
        learning_rate=cfg.learning_rate,
    )
    return result
