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
import numbers
from dataclasses import asdict, dataclass

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
        # comparisons written so that NaN fails them
        if not 0.0 <= self.l1 < math.inf:
            errs.append(f"l1 must be finite and >= 0, got {self.l1}")
        if not 0.0 <= self.l2 < math.inf:
            errs.append(f"l2 must be finite and >= 0, got {self.l2}")
        if not self.min_data_in_leaf >= 1:
            errs.append(f"min_data_in_leaf must be >= 1, got {self.min_data_in_leaf}")
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 0):
            errs.append(f"max_iterations must be an integer >= 0, got {self.max_iterations}")
        if not self.early_stopping_patience >= 0:
            errs.append(
                f"early_stopping_patience must be >= 0, got {self.early_stopping_patience}")
        if not 0.0 <= self.validation_fraction < 1.0:
            errs.append(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )
        if errs:
            raise ConfigError("; ".join(errs))


@dataclass
class LogRecord:
    """One update: scoring makes it, training and `replay` fold it, the log
    keeps it. The losses are those after the iteration's updates, set once
    they are applied."""

    iteration: int
    output: int
    feature: str
    degree: int
    kind: str  # "split" | "global"
    threshold: float | None
    gamma_left: float
    gamma_right: float | None
    gain: float
    train_loss: float | None = None
    valid_loss: float | None = None

    def to_json(self) -> str:
        # field order is the key order of the log line
        return json.dumps(asdict(self))


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


def _powers(v: np.ndarray, top: int) -> np.ndarray:
    """Rows v^0..v^top on a new first axis, each the previous row times v."""
    out = np.empty((top + 1,) + v.shape)
    out[0] = 1.0
    for p in range(1, top + 1):
        np.multiply(out[p - 1], v, out=out[p])
    return out


class _FeatureWork:
    """Cached per-feature structures for the candidate scans, and the scan
    that fills every allowed output's side sums once per iteration. The
    scan's arrays are indexed by output, of n_outputs (default: one past the
    last allowed output); a masked output's entries stay 0."""

    def __init__(self, x: np.ndarray, fb: FeatureBins, fc: FeatureConstraint, outputs=(0,),
                 n_outputs: int | None = None):
        self.x = x
        self.fb = fb
        self.fc = fc
        self.outputs = outputs = np.asarray(outputs)  # ascending, allowed for the feature
        self.split_degrees = list(range(max(fc.smoothness + 1, 0), fc.max_degree + 1))
        self.high_degrees = [d for d in self.split_degrees if d >= 1]  # coarse-grid splits
        self.global_degrees = list(range(0, fc.smoothness + 1))

        fcodes = fine_code(fb, x)
        piece, t = locate(fb, x, fcodes)
        counts = np.bincount(fcodes, minlength=fb.n_fine_bins)
        self.n_left_fine = np.cumsum(counts)[:-1]  # per fine edge
        # the degree-0 scan runs on the fine grid; n_fine is its threshold count
        self.n_fine = fb.fine_edges.size if 0 in self.split_degrees else 0

        ccounts = np.bincount(piece, minlength=fb.n_coarse_bins)
        self.n_left_coarse = np.cumsum(ccounts)[:-1]  # per coarse edge

        self.lower = fb.coarse_lower_edges
        self.widths = np.append(fb.coarse_edges, fb.x_max) - self.lower

        self.max_split_deg = max(self.high_degrees, default=0)
        self._build_blocks(fcodes, counts, t, ccounts)
        self._build_tensors()

        # the scan's results, allocated once per fit (see `scan`); a fit's
        # `_Candidates` makes `sums` a view of its columns of the fit's table
        J = int(outputs.max(initial=-1)) + 1 if n_outputs is None else n_outputs
        dmax = self.max_split_deg
        self.sums = np.zeros((J, 4, self.n_fine + self.row_degree.size))
        self.bins = np.zeros((J, 2, fb.n_fine_bins))
        self.gmom = np.zeros((J, fb.n_coarse_bins, dmax + 1))
        self.hmom = np.zeros((J, fb.n_coarse_bins, 2 * dmax + 1))
        self.h_done = False  # regression's h never changes: its side is kept

    def _build_blocks(self, fcodes, fcounts, t, counts) -> None:
        """Rows sorted stably by fine code, so that every fine bin and every
        coarse piece is a run of rows, and cut into blocks of at most `size`
        rows; a block never holds two pieces, so a piece's moments are the
        sums of its blocks' products.

        slot_row[b, c] is the row in slot c of block b. The last block of a
        piece pads out with row n, the zero last column of the scan's g/h
        matrix, so padding adds nothing and a non-finite weight stays in its
        own piece and fine bin. tblock[b, m, c] is the slot's t^m for
        m = 0..max_split_deg. fine_start is the first slot of each non-empty
        fine bin; a bin's rows (and any padding) run to the next one's.
        Blocks of n / (4 * pieces) rows keep the padding under a quarter of
        the rows; they hold at least 32, because each block is one BLAS
        call, and on small data the calls would cost more than the padded
        slots do."""
        n, n_pieces = t.size, counts.size
        size = max(-(-n // (4 * n_pieces)), 32)
        n_blocks = -(-counts // size)
        self.nonempty = np.flatnonzero(counts)
        first_block = np.cumsum(n_blocks) - n_blocks
        self.block_start = first_block[self.nonempty]
        # a key of 16 bits or fewer sorts by radix, several times faster;
        # fine bins nest in coarse pieces, so the rows run by piece too
        order = np.argsort(fcodes.astype(np.min_scalar_type(fcounts.size)), kind="stable")
        # the q-th row of piece p goes to slot q of the piece's first block
        start = np.cumsum(counts) - counts
        dest = np.arange(n) + np.repeat(first_block * size - start, counts)
        row = np.full(n_blocks.sum() * size, n)
        row[dest] = order
        self.slot_row = row.reshape(-1, size)
        self.fine_nonempty = np.flatnonzero(fcounts)
        self.fine_start = dest[(np.cumsum(fcounts) - fcounts)[self.fine_nonempty]]
        if self.max_split_deg >= 1:
            T = _powers(np.append(t, 0.0)[self.slot_row], self.max_split_deg)
            self.tblock = T.transpose(1, 0, 2)

    def _build_tensors(self) -> None:
        """The row table: every polynomial candidate of the feature is one
        row that adds gamma_left*(x-u)^d on side 0 and gamma_right*(x-u)^d
        on side 1. A global term of degree d <= S has u = x_min and every
        coarse piece on side 0; a split at coarse threshold j has u = edge j,
        pieces 0..j on side 0 and the rest on side 1. Rows run by degree,
        then threshold. row_mask is (side, row, piece).

        Wg/Wh (side, row, piece * m) are binomial recombination weights: a
        row's side sums of g*(x-u)^d and h*(x-u)^2d are rebuilt from the
        per-piece moments of g*t^m, t the piece-local offset, by one
        matrix-vector product per output and side. Working per piece keeps every term at the
        scale of its own piece, which avoids the cancellation blowup of
        global-monomial prefix sums."""
        edges = self.fb.coarse_edges
        mj, mb = edges.size, self.lower.size
        ng = len(self.global_degrees)
        j = np.tile(np.arange(mj), len(self.high_degrees))
        self.row_degree = np.concatenate(
            (self.global_degrees, np.repeat(self.high_degrees, mj))).astype(int)
        self.row_u = np.concatenate((np.full(ng, self.fb.x_min), edges[j]))
        self.row_n_left = np.concatenate((np.full(ng, self.x.size), self.n_left_coarse[j]))
        last = np.concatenate((np.full(ng, mb - 1), j))  # last piece on side 0
        left = np.arange(mb) <= last[:, None]
        # each side is summed directly from its own pieces: deriving one side
        # as total-minus-other cancels catastrophically when that side is tiny
        self.row_mask = np.stack([left, ~left])
        delta = self.lower - self.row_u[:, None]  # (row, piece)
        dmax, n_rows = self.max_split_deg, self.row_degree.size
        Wg = np.zeros((2, n_rows, mb, dmax + 1))
        Wh = np.zeros((2, n_rows, mb, 2 * dmax + 1))
        for d in np.unique(self.row_degree).tolist():
            r = self.row_degree == d
            sides = self.row_mask[:, None, r]  # (side, 1, row, piece)
            Wg[:, r, :, : d + 1] = (shift(delta[r], d) * sides).transpose(0, 2, 3, 1)
            Wh[:, r, :, : 2 * d + 1] = (shift(delta[r], 2 * d) * sides).transpose(0, 2, 3, 1)
        self.Wg = Wg.reshape(2, n_rows, mb * (dmax + 1))
        self.Wh = Wh.reshape(2, n_rows, mb * (2 * dmax + 1))

    def scan(self, GH: np.ndarray, h_static: bool, buf: np.ndarray | None = None) -> None:
        """This iteration's side sums of every allowed output into `sums`,
        (output, sgl/sgr/shl/shr, candidate): the fine thresholds, then the
        table rows. GH is (2J, n + 1), g then h by output, with a zero last
        column. When h_static, h is the same at every call and its side is
        computed on the first call only.

        Each output's g, h and h * t^max_split_deg are gathered into slot
        order in buf, of at least 3 * slot_row.size; one output at a time
        keeps the gathered rows small, and `train` allocates one buf per fit
        for all its features. Their
        per-fine-bin sums `bins` (output, g/h, bin) are one reduceat over the
        bins' runs of slots. Their per-piece moments `gmom` (output, piece,
        m <= max_split_deg) and `hmom` (m <= 2 * max_split_deg) are one
        product of each block's powers with its three rows, and one reduceat
        over each piece's blocks. Empty bins and pieces, and every entry of
        a masked output, are 0. Every product has the same shape for every
        output, so an output's sums do not depend on which other outputs
        the feature is allowed for."""
        S, nf, J, dmax = self.sums, self.n_fine, self.sums.shape[0], self.max_split_deg
        if not (S.size and self.outputs.size):
            return
        h_side = not self.h_done
        self.h_done = h_static
        sides, ne = 2 if h_side else 1, self.nonempty
        if buf is None:
            buf = np.empty(3 * self.slot_row.size)
        W = buf[: 3 * self.slot_row.size].reshape((3,) + self.slot_row.shape)
        W = W[: sides + (h_side and dmax > 0)]
        for i in self.outputs.tolist():
            for side in range(sides):
                GH[side * GH.shape[0] // 2 + i].take(self.slot_row, out=W[side], mode="clip")
            if nf:
                self.bins[i][:sides, self.fine_nonempty] = np.add.reduceat(
                    W[:sides].reshape(sides, -1), self.fine_start, axis=1)
            if dmax:
                if h_side:
                    np.multiply(W[1], self.tblock[:, dmax], out=W[2])
                per_piece = np.add.reduceat(self.tblock @ W.transpose(1, 2, 0), self.block_start)
                self.gmom[i, ne] = per_piece[..., 0]
                if h_side:
                    self.hmom[i, ne, : dmax + 1] = per_piece[..., 1]
                    self.hmom[i, ne, dmax + 1 :] = per_piece[:, 1:, 2]
        if nf:
            cum = self.bins[:, :sides].cumsum(2)
            S[:, 0 : 2 * sides : 2, :nf] = cum[..., :-1]
            S[:, 1 : 2 * sides : 2, :nf] = cum[..., -1:] - cum[..., :-1]
        if dmax:
            # one matrix-vector product per output and side
            np.matmul(self.Wg, self.gmom.reshape(J, 1, -1, 1), out=S[:, :2, nf:, None])
            if h_side:
                np.matmul(self.Wh, self.hmom.reshape(J, 1, -1, 1), out=S[:, 2:, nf:, None])


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

    Row r is a row of a feature's table: it adds lr*gamma*(x-u_r)^d over the
    pieces in its (side, piece) mask. Arrays are (sides, rows, pieces), any
    coefficient index first, pieces padded (masked out) to the widest. B
    and C hold sign*f' and sign*f'' of the state of the row's pair, A and D
    what one unit of gamma adds to them; mmask and cmask are the mask where
    the monotone and curvature signs bind. The constructor makes the block
    of one degree of one feature; `stack` joins blocks, `at` binds a state.
    """

    _GRID = ("mask", "mmask", "cmask", "w", "A", "D")  # (..., sides, rows, pieces)
    _ROW = ("m_sign", "c_sign", "kinks")  # (rows,)

    def __init__(self, wk: _FeatureWork, d: int, lr: float, rows: np.ndarray):
        m_sign, c_sign, n = wk.fc.monotone, wk.fc.curvature, rows.size
        self.mono, self.curv = bool(m_sign), bool(c_sign) and d >= 2
        self.mask = wk.row_mask[:, rows]
        self.mmask, self.cmask = self.mask & self.mono, self.mask & self.curv
        self.w = np.broadcast_to(wk.widths, self.mask.shape)
        u = np.broadcast_to(wk.row_u[rows], (2, n))
        delta = wk.lower - u[..., None]
        unit = np.zeros((4,) + delta.shape)  # local coefficients of lr*(x-u)^d
        unit[: d + 1] = shift(delta, d, lr)
        self.A = m_sign * np.stack(_slopes(unit))
        self.D = c_sign * np.stack(_bends(unit))
        self.m_sign, self.c_sign = np.full(n, m_sign), np.full(n, c_sign)
        # a degree-1 split kinks f'; the kink must bend with the curvature sign
        self.kinks = np.full(n, d == 1 and bool(c_sign) and d > wk.fc.smoothness)
        self.pair = np.zeros(n, dtype=int)

    @classmethod
    def stack(cls, blocks, pairs) -> "_ClampRows":
        """One batch of the blocks' rows; block b reads coefficient set pairs[b]."""
        out = copy.copy(blocks[0])
        P = max(b.mask.shape[-1] for b in blocks)
        for name in cls._GRID:
            parts = [getattr(b, name) for b in blocks]
            setattr(out, name, np.concatenate(
                [np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, P - a.shape[-1])]) for a in parts],
                axis=-2))
        for name in cls._ROW:
            setattr(out, name, np.concatenate([getattr(b, name) for b in blocks]))
        out.pair = np.repeat(pairs, [b.pair.size for b in blocks])
        out.mono, out.curv = (any(getattr(b, f) for b in blocks) for f in ("mono", "curv"))
        return out

    def at(self, coeffs: np.ndarray) -> "_ClampRows":
        """These rows against the states with local coefficients coeffs,
        (pieces, 4) for a block, (sets, pieces, 4) for a batch."""
        out = copy.copy(self)
        c = coeffs.reshape((-1,) + coeffs.shape[-2:])[self.pair].transpose(2, 0, 1)
        out.B = np.broadcast_to((self.m_sign[:, None] * np.stack(_slopes(c)))[:, None],
                                (3,) + self.mask.shape)
        out.C = np.broadcast_to((self.c_sign[:, None] * np.stack(_bends(c)))[:, None],
                                (2,) + self.mask.shape)
        return out

    def take(self, index) -> "_ClampRows":
        """The rows selected by index, an index into (sides, rows)."""
        out = copy.copy(self)
        index = (Ellipsis,) + index + (slice(None),)
        for name in self._GRID + ("B", "C"):
            setattr(out, name, getattr(self, name)[index])
        return out


def _parabola(r: _ClampRows, g: np.ndarray):
    """sign*f' of each piece after the rows add g, as q0 + q1*t + q2*t^2,
    with its vertex t* (-1 where q2 <= 0) and whether t* lies inside the
    piece, so that the parabola's minimum is interior. Rows the monotone
    sign does not bind (zero A and B, any gamma) are masked out by callers."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q0, q1, q2 = (b + g * a for a, b in zip(r.A, r.B))
        pos = q2 > 0.0
        tstar = np.where(pos, -q1 / (2.0 * q2), -1.0)
    return q0, q1, q2, tstar, pos & (tstar > 0.0) & (tstar < r.w)


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
        lo, hi = cut(lo, hi, A0, B0, r.mmask)
        lo, hi = cut(lo, hi, A0 + A1 * w + A2 * w * w, B0 + B1 * w + B2 * w * w, r.mmask)
    if r.curv:
        C0, C1 = r.C
        D0, D1 = r.D
        lo, hi = cut(lo, hi, D0, C0, r.cmask)
        lo, hi = cut(lo, hi, D0 + D1 * w, C0 + C1 * w, r.cmask)

    # without quadratic terms f' is linear on each piece: its endpoints bound it
    if r.mono and (np.any(A2 != 0.0) or np.any(B2 != 0.0)):
        # Rows refine in lockstep. A row whose refinement has stopped (no
        # violation, or an unchanged clamp) is at a fixed point: repeating
        # the step recomputes the same cuts and the same clamp, so each row
        # ends where a refinement of that row alone would end.
        gamma_c = np.where(lo <= hi, _clip(gamma, lo, hi), 0.0)
        for _ in range(8):
            q0, q1, q2, tstar, inside = _parabola(r, gamma_c[..., None])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                qmin = q0 - q1 * q1 / (4.0 * np.maximum(q2, 1e-300))
                viol = r.mmask & inside & (qmin < -FEAS_SLACK)
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
    with np.errstate(invalid="ignore", over="ignore"):
        if r.mono:
            q0, q1, q2, tstar, inside = _parabola(r, g)
            interior = np.where(inside, q0 + q1 * tstar + q2 * tstar * tstar, np.inf)
            vals += [(r.mmask, v) for v in (q0, q0 + q1 * w + q2 * w * w, interior)]
        if r.curv:
            q0 = r.C[0] + g * r.D[0]
            q1 = r.C[1] + g * r.D[1]
            vals += [(r.cmask, q0), (r.cmask, q0 + q1 * w)]
    worst = np.full(gamma.shape, np.inf)
    for mask, v in vals:
        worst = np.minimum(worst, np.where(mask, v, np.inf).min(axis=-1))
    return worst


def _clamp(rows: _ClampRows, cfg: TrainConfig, gamma: np.ndarray, sums) -> np.ndarray:
    """Clamp leaf-value proposals gamma (sides, rows) into the feasible
    intervals of the bound clamp rows, apply the degree-1 kink rule to the
    rows it binds, then halve each row's sides together until the exact
    check passes; a row still failing after 60 halvings becomes a no-op.
    sums are the side sums (sgl, shl, sgr, shr) per row, for the kink rule."""
    lo, hi = _feasible_interval(rows, gamma)
    gamma = _clip(gamma, lo, hi)
    if rows.kinks.any():
        bad = rows.kinks & (rows.c_sign * (gamma[1] - gamma[0]) < 0.0)
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
    """Every candidate update of a fit, laid out end to end.

    Columns run by feature, then degree, then ascending threshold. A feature
    contributes its fine degree-0 scan (only when S = -1) and its row table
    (global terms, then one coarse scan per split degree). The layout is
    fixed for a whole fit. `sums` is (output, sgl/sgr/shl/shr, column), and
    each feature's `sums` is a view of its own columns, so its scan fills
    them in place. A column is valid for an output when the feature is
    allowed for it and, for a split, both leaves hold min_data_in_leaf
    rows. Because columns are in (feature, degree, threshold) order, the
    first argmax of an output's gains picks the lowest such triple among
    equal gains.
    """

    def __init__(self, works: list[_FeatureWork], n_outputs: int, cfg: TrainConfig, n: int):
        cols = []  # per feature: feature, degree, threshold (NaN: global), n_left
        for k, wk in enumerate(works):
            nf, split = wk.n_fine, wk.row_degree > wk.fc.smoothness
            cols.append((np.full(nf + wk.row_degree.size, k),
                         np.append(np.zeros(nf, dtype=int), wk.row_degree),
                         np.append(wk.fb.fine_edges[:nf], np.where(split, wk.row_u, np.nan)),
                         np.append(wk.n_left_fine[:nf], wk.row_n_left)))
        stops = np.cumsum([c[0].size for c in cols], dtype=int).tolist()
        cols = [np.concatenate(c) for c in zip(*cols)] if cols else [np.empty(0, int)] * 4
        self.feature, self.degree, self.threshold, nl = cols
        self.is_global = np.isnan(self.threshold)
        min_leaf = cfg.min_data_in_leaf
        ok = self.is_global | ((nl >= min_leaf) & (n - nl >= min_leaf))
        allowed = np.zeros((n_outputs, len(works)), dtype=bool)
        self.sums = np.zeros((n_outputs, 4, ok.size))
        self.pools = []  # (monotone sign, columns) of monotone fine scans
        # every valid row of a constrained degree >= 1 is clamped for each
        # allowed output before gains are compared: one block of clamp rows
        # per (output, feature, degree), reading its (output, feature) pair
        blocks, pairs = [], {}
        for k, (wk, start, stop) in enumerate(zip(works, [0] + stops, stops)):
            fc, table = wk.fc, start + wk.n_fine  # the feature's first table row
            allowed[wk.outputs, k] = True
            wk.sums = self.sums[:, :, start:stop]  # so the scan fills its columns in place
            if wk.n_fine and fc.monotone:
                self.pools.append((fc.monotone, slice(start, table)))
            if fc.monotone or fc.curvature:
                for d in np.unique(wk.row_degree[wk.row_degree >= 1]).tolist():
                    rows = np.flatnonzero(ok[table:stop] & (wk.row_degree == d))
                    if rows.size:
                        units = _ClampRows(wk, d, cfg.learning_rate, rows)
                        blocks += [(units, pairs.setdefault((i, k), len(pairs)), table + rows)
                                   for i in wk.outputs.tolist()]
        self.valid = allowed[:, self.feature] & ok  # (output, column)
        # the batch of every clamp row, each row's (output, column), and a
        # (pairs, pieces, 4) buffer for the pairs' current coefficients
        self.clamp = None
        if blocks:
            units, block_pair, col = zip(*blocks)
            rows, pairs = _ClampRows.stack(units, block_pair), list(pairs)
            self.clamp = (rows, np.array(pairs)[rows.pair, 0], np.concatenate(col), pairs,
                          np.zeros((len(pairs), rows.mask.shape[-1], 4)))


def _best_updates(
    cands: _Candidates, store: ParameterStore, cfg: TrainConfig, it: int
) -> list[LogRecord]:
    """Score every candidate of every output in one pass, from this
    iteration's feature scans, and return each output's best, in output
    order, as a record of iteration it whose losses are not yet set. An
    output with no finite positive gain has no record."""
    if cands.valid.size == 0:
        return []
    l1, l2, sums = cfg.l1, cfg.l2, cands.sums
    gamma = leaf_value(sums[:, :2], sums[:, 2:], l1, l2)  # (output, left/right, column)
    gamma[:, 1, cands.is_global] = 0.0

    # block-local fixes, each writing into its block's columns of gamma
    for sign, sl in cands.pools:
        gl, gr = gamma[:, 0, sl], gamma[:, 1, sl]
        bad = cands.valid[:, sl] & (sign * (gr - gl) < 0.0)
        if bad.any():
            sgl, sgr, shl, shr = sums[:, :, sl].swapaxes(0, 1)
            pooled = leaf_value(sgl + sgr, shl + shr, l1, l2)
            gamma[:, :, sl] = np.where(bad[:, None], pooled[:, None], gamma[:, :, sl])
    if cands.clamp is not None:
        rows, out, col, pairs, coeffs = cands.clamp
        for p, (i, k) in enumerate(pairs):
            c = store.params[i][k].poly_coeffs
            coeffs[p, : len(c)] = c
        sgl, sgr, shl, shr = sums[out, :, col].T
        clamped = _clamp(rows.at(coeffs), cfg, gamma[out, :, col].T, (sgl, shl, sgr, shr))
        gamma[out, :, col] = clamped.T

    gains = candidate_gain(gamma[:, 0], sums[:, 0], sums[:, 2], gamma[:, 1], sums[:, 1], sums[:, 3])
    gains = np.where(cands.valid & np.isfinite(gains), gains, -np.inf)
    picks = []
    for i, j in enumerate(np.argmax(gains, axis=1).tolist()):
        if gains[i, j] > 0.0:
            split = not cands.is_global[j]
            picks.append(LogRecord(
                it, i, store.feature_names[cands.feature[j]], int(cands.degree[j]),
                "split" if split else "global", float(cands.threshold[j]) if split else None,
                float(gamma[i, 0, j]), float(gamma[i, 1, j]) if split else None,
                float(gains[i, j]),
            ))
    return picks


# ---------------------------------------------------------------------------
# applying updates


def _fold(store: ParameterStore, rec: LogRecord, lr: float) -> int:
    """Fold one update into the store and return its feature's index.
    Training and `replay` both fold through here, so a replay repeats the
    training's arithmetic exactly."""
    k = store.feature_names.index(rec.feature)
    if rec.kind == "global":
        accumulate_global(store, rec.output, k, rec.degree, rec.gamma_left, lr)
    else:
        accumulate_update(store, rec.output, k, rec.degree, rec.threshold,
                          rec.gamma_left, rec.gamma_right, lr)
    return k


def _apply_candidate(
    store: ParameterStore,
    rec: LogRecord,
    lr: float,
    works: list[_FeatureWork],
    F: np.ndarray,
    X_valid: np.ndarray | None,
    F_valid: np.ndarray | None,
) -> None:
    """Fold the update into the store and add lr*gamma*(x-u)^d to the
    training and validation scores, gamma_left where x < u and gamma_right
    elsewhere; a global term is one side with u the feature minimum."""
    k = _fold(store, rec, lr)
    i, d, gl, gr = rec.output, rec.degree, rec.gamma_left, rec.gamma_right
    is_global = rec.kind == "global"
    u = works[k].fb.x_min if is_global else rec.threshold
    targets = [(works[k].x, F)]
    if F_valid is not None:
        targets.append((X_valid[:, k], F_valid))
    for x, scores in targets:
        s = x - u  # one pass over the (strided) column; s < 0 exactly when x < u
        # an unnamed select frees its buffer for the next product to reuse;
        # a named one measured twice as slow at 14k rows
        scores[:, i] += lr * (gl if is_global else np.where(s < 0.0, gl, gr)) * s**d


def replay(
    initial_store: ParameterStore,
    log: list[LogRecord],
    iteration: int,
    learning_rate: float = 0.1,
) -> ParameterStore:
    """Reconstruct the parameter state after `iteration` full iterations by
    folding the logged updates into a copy of the initial state, through
    the same `_fold` as training, so the result is bit-identical."""
    out = initial_store.copy()
    for rec in log:
        if rec.iteration <= iteration:
            _fold(out, rec, learning_rate)
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

    J = dataset.n_outputs
    works = [
        _FeatureWork(ds_train.X[:, k], layout.features[k], constraints.features[k],
                     np.flatnonzero(constraints.allow_mask[:, k]), J)
        for k in range(len(dataset.feature_names))
    ]
    h_static = task == "regression"

    n_tr = ds_train.X.shape[0]
    cands = _Candidates(works, J, cfg, n_tr)
    GH = np.zeros((2 * J, n_tr + 1))  # g then h of the iteration; the last column stays 0
    buf = np.empty(3 * max((wk.slot_row.size for wk in works), default=0))  # the scans' gathers
    F = np.tile(intercepts, (n_tr, 1))
    if ds_valid is not None and ds_valid.X.shape[0] > 0:
        F_valid = np.tile(intercepts, (ds_valid.X.shape[0], 1))
        X_valid = ds_valid.X
    else:
        F_valid = None
        X_valid = None

    def losses(when: str):
        """The link of the training scores, which feeds both the loss after
        an update and the derivatives of the next iteration, so it is
        computed once, and both losses; a non-finite loss raises."""
        p = None if task == "regression" else link_apply(task, F)
        tl = loss_eval(task, ds_train.y, F, p)
        vl = loss_eval(task, ds_valid.y, F_valid) if F_valid is not None else None
        if not math.isfinite(tl) or (vl is not None and not math.isfinite(vl)):
            raise NumericError(f"non-finite {when}")
        return p, tl, vl

    log: list[LogRecord] = []
    p, train_loss, valid_loss = losses(
        "starting loss: the targets hold NaN/inf or values too large to square")
    start_losses = train_loss, valid_loss
    best_valid = valid_loss if valid_loss is not None else math.inf
    best_iter = 0
    last_iter = 0

    for it in range(1, cfg.max_iterations + 1):
        batch = derivatives(task, ds_train.y, F, p)
        GH[:J, :-1], GH[J:, :-1] = batch.g.T, batch.h.T
        del batch  # GH holds g and h; freeing them keeps the scans' peak memory low
        for wk in works:
            wk.scan(GH, h_static, buf)
        picks = _best_updates(cands, store, cfg, it)
        if not picks:
            last_iter = it - 1
            break
        for rec in picks:
            _apply_candidate(store, rec, cfg.learning_rate, works, F, X_valid, F_valid)
        p, train_loss, valid_loss = losses(f"loss at iteration {it}")
        for rec in picks:
            rec.train_loss, rec.valid_loss = train_loss, valid_loss
        log += picks
        last_iter = it
        if F_valid is not None and valid_loss < best_valid:
            best_valid = valid_loss
            best_iter = it
        if use_early_stop and it - best_iter >= cfg.early_stopping_patience:
            break

    if not use_early_stop:
        best_iter = last_iter

    if best_iter < last_iter:
        # the kept model's losses: its iteration's record, or the starting ones
        store = replay(initial_store, log, best_iter, cfg.learning_rate)
        train_loss, valid_loss = next(
            ((r.train_loss, r.valid_loss) for r in log if r.iteration == best_iter), start_losses)

    return TrainResult(
        store=store,
        initial_store=initial_store,
        log=log,
        best_iteration=best_iter,
        n_iterations=last_iter,
        train_loss=train_loss,
        valid_loss=valid_loss,
        learning_rate=cfg.learning_rate,
    )
