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
import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import lanes
from .data import BinLayout, Dataset, FeatureBins, build_bin_layout, is_integer, split_indices
from .errors import ConfigError, DataError, NumericError
# derivatives and loss_eval are not called here: the benchmark's tracer
# binds these names in this module
from .losses import (  # noqa: F401
    checked_labels, derivative_rows, derivatives, link_rows, loss_eval, loss_mean, loss_rows)
from .model import (
    ConstraintSpec,
    FeatureConstraint,
    ParameterStore,
    _offsets,
    _read_table,
    accumulate_global,
    accumulate_update,
    fine_code,
    locate,
    shift,
    zero_init,
)

H_FLOOR = 1e-12
FEAS_SLACK = 1e-10  # rounding guard of the clamp's final check; tests allow -1e-9


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
        """Refuse, in one ConfigError naming each, every field of the wrong
        type or out of its range; each range test is written so that NaN
        fails it."""
        errs = []
        for name, integer, ok, bound in (
                ("learning_rate", False, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                ("l1", False, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
                ("l2", False, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
                ("min_data_in_leaf", True, lambda v: v >= 1, ">= 1"),
                ("max_iterations", True, lambda v: v >= 0, ">= 0"),
                ("early_stopping_patience", True, lambda v: v >= 0, ">= 0"),
                ("validation_fraction", False, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                ("seed", True, lambda v: v >= 0, ">= 0")):
            value = getattr(self, name)
            if not (is_integer(value) if integer else isinstance(value, numbers.Real)):
                errs.append(f"{name} must be {'an integer' if integer else 'a number'}, "
                            f"got {value!r}")
            elif not ok(value):
                errs.append(f"{name} must be {bound}, got {value!r}")
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


def _powers(out: np.ndarray) -> np.ndarray:
    """In place, out[p] = v^p for v = out[1]: each row the previous one times v."""
    out[0] = 1.0
    for p in range(2, len(out)):
        np.multiply(out[p - 1], out[1], out=out[p])
    return out


class _FeatureWork:
    """Cached per-feature structures for the fit's scan (`_Scan`). `sums`,
    (output, sgl/sgr/shl/shr, candidate), is indexed by output, up to the
    last allowed one; a masked output's entries stay 0. A fit's
    `_Candidates` makes it a view of the feature's columns of the fit's
    table, which holds every output."""

    def __init__(self, x: np.ndarray, fb: FeatureBins, fc: FeatureConstraint, outputs=(0,)):
        self.x = x
        self.fb = fb
        self.fc = fc
        self.outputs = outputs = np.asarray(outputs)  # ascending, allowed for the feature
        self.split_degrees = list(range(max(fc.smoothness + 1, 0), fc.max_degree + 1))
        self.high_degrees = [d for d in self.split_degrees if d >= 1]  # coarse-grid splits
        self.global_degrees = list(range(0, fc.smoothness + 1))

        self.lower = fb.coarse_lower_edges
        self.upper = np.append(fb.coarse_edges, fb.x_max)
        self.widths = self.upper - self.lower

        self.max_split_deg = max(self.high_degrees, default=0)
        fcounts, counts = self._build_blocks()
        self.n_left_fine = np.cumsum(fcounts)[:-1]  # per fine edge
        # the degree-0 scan runs on the fine grid; n_fine is its threshold count
        self.n_fine = fb.fine_edges.size if 0 in self.split_degrees else 0
        self.n_left_coarse = np.cumsum(counts)[:-1]  # per coarse edge
        self._build_tensors()

        self.sums = np.zeros((int(outputs.max(initial=-1)) + 1, 4,
                              self.n_fine + self.row_degree.size))

    def _build_blocks(self):
        """Rows sorted stably by fine code, so that every fine bin and every
        coarse piece is a run of rows, and cut into blocks of at most `size`
        rows; a block never holds two pieces, so a piece's moments are the
        sums of its blocks' products. Returns the row counts of the fine bins
        and of the coarse pieces.

        slot_row[b, c] is the row in slot c of block b. The last block of a
        piece pads out with row n, the zero last column of the scan's g/h
        matrix, so padding adds nothing and a non-finite weight stays in its
        own piece and fine bin. tblock[b, m, c] is the slot's t^m for
        m = 0..max_split_deg, stored as (m, b, c): the block product's BLAS
        path, and so its bits, depend on that layout. fine_start is the first
        slot of each non-empty fine bin; a bin's rows (and any padding) run
        to the next one's. Blocks are sized to the largest piece: it takes
        the ceil(c_max / s) blocks that s = ceil(n / (4 * pieces)) rows
        would give it, evened out, so it pads fewer slots than it has blocks
        and no piece pads s slots or more. They hold at least 32 rows,
        because each block is one BLAS call, and on small data the calls
        would cost more than the padded slots do. Arrays of n rows go once
        used, so beside the arrays kept the powers need only t."""
        fb, x = self.fb, self.x
        fcodes = fine_code(fb, x)
        piece, t = locate(fb, x, fcodes)
        t = np.append(t, 0.0)  # padding's t, so its powers are finite
        fcounts = np.bincount(fcodes, minlength=fb.n_fine_bins)
        counts = np.bincount(piece, minlength=fb.n_coarse_bins)
        del piece
        n, c_max = x.size, int(counts.max())
        s = -(-n // (4 * counts.size))
        size = max(-(-c_max // -(-c_max // s)), 32)
        n_blocks = -(-counts // size)
        self.nonempty = np.flatnonzero(counts)
        first_block = np.cumsum(n_blocks) - n_blocks
        self.block_start = first_block[self.nonempty]
        # a key of 8 bits (256 fine bins) or 16 sorts by radix, several times
        # faster; fine bins nest in coarse pieces, so the rows run by piece too
        order = np.argsort(fcodes.astype(np.min_scalar_type(fcounts.size - 1)), kind="stable")
        del fcodes
        # the q-th row of piece p goes to slot q of the piece's first block
        start = np.cumsum(counts) - counts
        dest = np.arange(n) + np.repeat(first_block * size - start, counts)
        row = np.full(n_blocks.sum() * size, n)
        row[dest] = order
        self.slot_row = row.reshape(-1, size)
        self.fine_nonempty = np.flatnonzero(fcounts)
        self.fine_start = dest[(np.cumsum(fcounts) - fcounts)[self.fine_nonempty]]
        del order, dest
        if self.max_split_deg >= 1:
            T = np.empty((self.max_split_deg + 1,) + self.slot_row.shape)
            t.take(self.slot_row, out=T[1], mode="clip")  # "raise" buffers out
            del t
            self.tblock = _powers(T).transpose(1, 0, 2)
        return fcounts, counts

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


class _Scan:
    """The fit's scan: each call fills every allowed output's side sums of
    every feature into its `sums`, fine thresholds then table rows. Each
    feature must have a candidate and an allowed output; `train` builds no
    workspace for any other.

    It works over runs: stretches of consecutive features that share the
    block size, the allowed outputs and max_split_deg, of at most the larger
    of 2^14 and the biggest feature's slot count. A run lays its features'
    blocks end to end, so per output one `take` per side, one fine reduceat,
    one block product and one per-piece reduceat serve all of them. That
    saves numpy calls on small data; on large data every run is one
    feature. The run's arrays are its features' only `slot_row` and
    `tblock`, and hold their `bins` (output, g/h, fine bin), `gmom` and
    `hmom` (output, piece, m). Each feature keeps its own recombination
    products and outputs are gathered one at a time, so its sums are bit
    for bit those of a scan of it and of that output alone.

    On more than one lane (`lanes.gate` on the biggest run's slots), each
    run is cut at piece starts into one segment per lane, and `lanes.deal`
    hands out the segments, weighed by slots times outputs, so lane loads
    differ by at most one segment. Each lane has a gather buffer of three
    rows of its biggest segment. A piece and each of its fine bins lie in
    one segment and sum the same slots in the same order as in a scan of
    the whole run, and the runs are recombined on the calling thread once
    every lane is joined, when no segment writes the sums they read; so
    every sum keeps its bits on any number of lanes."""

    def __init__(self, works: list[_FeatureWork]):
        limit = max([2**14] + [wk.slot_row.size for wk in works])
        runs = []  # key, slots, features
        for wk in works:
            key = (wk.slot_row.shape[1], wk.outputs.tolist(), wk.max_split_deg)
            if not runs or key != runs[-1][0] or runs[-1][1] + wk.slot_row.size > limit:
                runs.append([key, 0, []])
            runs[-1][1] += wk.slot_row.size
            runs[-1][2].append(wk)
        self.runs = [_Run(run) for _, _, run in runs]
        n_lanes = lanes.gate(max((r.slot_row.size for r in self.runs), default=0))
        segments = [seg for run in self.runs for seg in run.cut(n_lanes)]
        self.lanes = [[segments[i] for i in lane] for lane in lanes.deal(
            [seg.slot_row.size * len(seg.run.outputs) for seg in segments], n_lanes)]
        self.bufs = [np.empty(3 * max((s.slot_row.size for s in lane), default=0))
                     for lane in self.lanes]

    def __call__(self, GH: np.ndarray, h_side: bool = True, pool=None) -> None:
        """GH is (2J, n + 1), g then h by output, with a zero last column.
        Without h_side only the g side is summed, and the h side kept. With
        a pool (an executor), every lane but the first runs on it, while the
        first runs on this thread; without one, the lanes run one after
        another. Each run is recombined on this thread once every lane is
        done."""

        def lane(segments, buf):
            for seg in segments:
                seg.scan(GH, h_side, buf)

        lanes._on_lanes(pool, [functools.partial(lane, *job)
                               for job in zip(self.lanes, self.bufs)])
        for run in self.runs:
            run.recombine(h_side)


class _Run:
    """One run of `_Scan`: its features' slot tables end to end."""

    def __init__(self, works: list[_FeatureWork]):
        self.works, wk, F = works, works[0], len(works)
        self.outputs, self.dmax, J = wk.outputs.tolist(), wk.max_split_deg, wk.sums.shape[0]
        blocks = np.cumsum([0] + [w.slot_row.shape[0] for w in works])
        pieces = np.cumsum([0] + [w.fb.n_coarse_bins for w in works])
        M = max(w.fb.n_fine_bins for w in works)
        self.block_start = np.concatenate([w.block_start + b for w, b in zip(works, blocks)])
        self.nonempty = np.concatenate([w.nonempty + p for w, p in zip(works, pieces)])
        # a cut at every feature's first slot ends its last fine bin there;
        # a feature without a fine scan sums into the spare row F
        self.fine_cut = np.concatenate([w.fine_start + o if w.n_fine else [o] for w, o
                                        in zip(works, (blocks * wk.slot_row.shape[1]).tolist())])
        self.fine_dest = np.concatenate([w.fine_nonempty + f * M if w.n_fine else [F * M]
                                         for f, w in enumerate(works)])
        self.fine = any(w.n_fine for w in works)
        self.bins = np.zeros((J, 2, F + 1, M))
        self.gmom = np.zeros((J, pieces[-1], self.dmax + 1))
        self.hmom = np.zeros((J, pieces[-1], 2 * self.dmax + 1))
        self.slot_row = wk.slot_row if F == 1 else np.concatenate([w.slot_row for w in works])
        self.tblock = None if not self.dmax else wk.tblock if F == 1 else np.concatenate(
            [w.tblock.transpose(1, 0, 2) for w in works], axis=1).transpose(1, 0, 2)
        for f, w in enumerate(works):
            b, p = slice(blocks[f], blocks[f + 1]), slice(pieces[f], pieces[f + 1])
            w.slot_row, w.tblock = self.slot_row[b], self.tblock[b] if self.dmax else None
            w.bins = self.bins[:, :, f, : w.fb.n_fine_bins]
            w.gmom, w.hmom = self.gmom[:, p], self.hmom[:, p]

    def cut(self, parts: int) -> list["_Segment"]:
        """The run cut into at most `parts` segments of about equal slots,
        each starting at a non-empty piece's first block."""
        starts = self.block_start
        want = np.arange(1, parts) * self.slot_row.shape[0] / parts
        ends = np.unique(np.abs(starts[:, None] - want).argmin(axis=0))
        bounds = [0] + [int(q) for q in ends if q > 0] + [starts.size]
        return [_Segment(self, q0, q1) for q0, q1 in zip(bounds, bounds[1:])]

    def recombine(self, h_side: bool) -> None:
        """Turn the run's fine-bin sums and per-piece moments into its
        features' side sums."""
        J, sides, dmax = self.gmom.shape[0], 2 if h_side else 1, self.dmax
        cum = self.bins[:, :sides].cumsum(3) if self.fine else None
        for f, wk in enumerate(self.works):
            S, nf = wk.sums, wk.n_fine
            if nf:
                S[:, 0 : 2 * sides : 2, :nf] = cum[:, :, f, :nf]
                S[:, 1 : 2 * sides : 2, :nf] = cum[:, :, f, nf : nf + 1] - cum[:, :, f, :nf]
            if dmax:
                # one matrix-vector product per output and side
                np.matmul(wk.Wg, wk.gmom.reshape(J, 1, -1, 1), out=S[:, :2, nf:, None])
                if h_side:
                    np.matmul(wk.Wh, wk.hmom.reshape(J, 1, -1, 1), out=S[:, 2:, nf:, None])


class _Segment:
    """The non-empty pieces q0:q1 of a run, as a run of their own: their
    blocks' slot rows and powers, their first blocks, and the run's fine
    cuts in their slots. A piece of a feature with a fine scan starts with
    a cut, so slots before a segment's first cut belong to a feature
    without one and are not summed."""

    def __init__(self, run: _Run, q0: int, q1: int):
        self.run = run
        starts, size = run.block_start, run.slot_row.shape[1]
        b0 = starts[q0]
        b1 = starts[q1] if q1 < starts.size else run.slot_row.shape[0]
        self.slot_row = run.slot_row[b0:b1]
        self.tblock = run.tblock[b0:b1] if run.dmax else None
        self.block_start = starts[q0:q1] - b0
        self.nonempty = run.nonempty[q0:q1]
        lo, hi = np.searchsorted(run.fine_cut, [b0 * size, b1 * size])
        self.fine_cut = run.fine_cut[lo:hi] - b0 * size
        self.fine_dest = run.fine_dest[lo:hi]

    def scan(self, GH: np.ndarray, h_side: bool, buf: np.ndarray) -> None:
        """Gathers each output's g, h and h * t^max_split_deg into slot order
        in buf, of at least 3 * slot_row.size, and sums them into the run's
        fine-bin sums and per-piece moments."""
        run = self.run
        dmax, ne, sides = run.dmax, self.nonempty, 2 if h_side else 1
        W = buf[: 3 * self.slot_row.size].reshape((3,) + self.slot_row.shape)
        W = W[: sides + (h_side and dmax > 0)]
        for i in run.outputs:
            for side in range(sides):
                GH[side * GH.shape[0] // 2 + i].take(self.slot_row, out=W[side], mode="clip")
            if run.fine:
                run.bins[i, :sides].reshape(sides, -1)[:, self.fine_dest] = np.add.reduceat(
                    W[:sides].reshape(sides, -1), self.fine_cut, axis=1)
            if dmax:
                if h_side:
                    np.multiply(W[1], self.tblock[:, dmax], out=W[2])
                per_piece = np.add.reduceat(self.tblock @ W.transpose(1, 2, 0), self.block_start)
                run.gmom[i, ne] = per_piece[..., 0]
                if h_side:
                    run.hmom[i, ne, : dmax + 1] = per_piece[..., 1]
                    run.hmom[i, ne, dmax + 1 :] = per_piece[:, 1:, 2]


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
    """Signed per-piece coefficients of f' and f'' for every clamp row of a fit.

    Row r is a table row of one output: it adds lr*gamma*(x-u_r)^d over the
    pieces in its (side, piece) mask. Arrays are (sides, rows, pieces), any
    coefficient index first, pieces padded (masked out) to the widest
    feature. B and C hold sign*f' and sign*f'' of the row's (output,
    feature) state, A and D what one unit of gamma adds to them. AU holds
    A in powers of x - upper edge and Dw is D at the upper edge, both
    expanded from that edge, so a row adds exactly 0 to f' (d >= 2) and
    f'' (d = 3) at its own threshold from either side. mmask and cmask mark
    where the monotone and curvature signs bind. out and col are each row's
    (output, column) of the fit's candidates, coef each (row, piece)'s row
    in the store's coefficient table. `at` binds a store's state.
    """

    def __init__(self, blocks, lr: float, first_row: np.ndarray):
        """blocks: (output, feature, work, degree, table rows, columns) of
        each block of rows; all rows of a block have the one degree.
        first_row: each (output, feature) pair's first row in the store's
        coefficient table (`model._offsets`)."""
        P = max(wk.lower.size for _, _, wk, _, _, _ in blocks)
        grids, rowwise = [], []
        for i, k, wk, d, rows, cols in blocks:
            m_sign, c_sign, n, pieces = wk.fc.monotone, wk.fc.curvature, rows.size, wk.lower.size
            mask = wk.row_mask[:, rows]
            unit = np.zeros((2, 4) + mask.shape)  # coefficients of lr*(x-u)^d at lower, upper
            for unit_at, edge in zip(unit, (wk.lower, wk.upper)):
                unit_at[: d + 1] = shift(edge - wk.row_u[rows, None], d, lr)[:, None]
            # padding reads the table's zero last row
            coef = np.where(np.arange(P) < pieces, first_row[i, k] + np.arange(P), -1)
            grids.append((mask & bool(m_sign), mask & (bool(c_sign) and d >= 2),
                          np.broadcast_to(wk.widths, mask.shape), np.broadcast_to(coef, (n, P)),
                          m_sign * np.stack(_slopes(unit[0])), c_sign * np.stack(_bends(unit[0])),
                          m_sign * np.stack(_slopes(unit[1])), c_sign * _bends(unit[1])[0]))
            # a degree-1 split kinks f'; the kink must bend with the curvature sign
            kink = c_sign if d == 1 and d > wk.fc.smoothness else 0
            rowwise.append(np.vstack((np.repeat([[i], [m_sign], [c_sign], [kink]], n, 1), cols)))
        self.out, self.m_sign, self.c_sign, self.kink, self.col = np.concatenate(rowwise, axis=1)
        self.mmask, self.cmask, self.w, self.coef, self.A, self.D, self.AU, self.Dw = (
            np.concatenate([np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, P - a.shape[-1])])
                            for a in grid], axis=-2)
            for grid in zip(*grids))
        self.mono, self.curv = bool(self.mmask.any()), bool(self.cmask.any())

    def at(self, store: ParameterStore) -> "_ClampRows":
        """These rows against the store's current coefficients, gathered
        from its table (`model._read_table`)."""
        out, shape = copy.copy(self), self.mmask.shape
        c = _read_table(store)[0][self.coef].transpose(2, 0, 1)
        out.B = np.broadcast_to((self.m_sign[:, None] * np.stack(_slopes(c)))[:, None], (3, *shape))
        out.C = np.broadcast_to((self.c_sign[:, None] * np.stack(_bends(c)))[:, None], (2, *shape))
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


def _feasible_interval(r: _ClampRows):
    """Each row's feasible interval [lo, hi]: the steps after which every
    bound sign*f' and sign*f'' is >= 0 on the row's pieces; [0, 0] where
    there are none.

    At each point x of a piece the constraint b + a*gamma >= 0 is affine in
    gamma, so it cuts a half-line, and no such cut removes a feasible gamma.
    The interval's ends are the tightest of these cuts: the pieces' edges
    (f'' is linear on a piece, so they are all it needs); for a quadratic
    f', the stationary points of -b/a inside the piece, where the step
    leaves sign*f' touching 0 at an interior minimum; and the limit of -b/a
    at the row's own u (its threshold, or x_min for a global term), where
    a = 0. Each point is found in powers of its nearer edge, where a row's
    zeros at u are exact.
    """
    lo = np.full(r.w.shape[:-1], -np.inf)
    hi = np.full(r.w.shape[:-1], np.inf)

    def cut(lo, hi, a, b, mask):
        # intersect with the half-lines {gamma : b + a*gamma >= 0}
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -b / a
        lo_new = np.where(mask & (a > 0.0), bound, -np.inf).max(axis=-1)
        hi_new = np.where(mask & (a < 0.0), bound, np.inf).min(axis=-1)
        return np.where(lo_new > lo, lo_new, lo), np.where(hi_new < hi, hi_new, hi)

    w = r.w
    if r.curv:
        lo, hi = cut(lo, hi, r.D[0], r.C[0], r.cmask)
        lo, hi = cut(lo, hi, r.Dw, r.C[0] + r.C[1] * w, r.cmask)
    if r.mono:
        B0, B1, B2 = r.B
        BU = (B0 + B1 * w + B2 * w * w, B1 + 2.0 * B2 * w, B2)  # in powers of x - upper edge
        # without quadratic terms f' is linear on each piece: its edges bound it
        quadratic = np.any(r.A[2] != 0.0) or np.any(B2 != 0.0)
        # the lower edge's frame covers s = x - lower in [0, w/2], the upper one's [-w/2, 0]
        for (a0, a1, a2), (b0, b1, b2), into in ((r.A, r.B, 1.0), (r.AU, BU, -1.0)):
            lo, hi = cut(lo, hi, a0, b0, r.mmask)
            if not quadratic:
                continue
            # where the step adds 0 and the state sits on the bound, sign*f'
            # must not turn negative into the piece
            lo, hi = cut(lo, hi, into * a1, into * b1, r.mmask & (a0 == 0.0) & (b0 <= 0.0))
            # stationary points of -b/a: (b2*a1 - b1*a2)s^2 + 2(b2*a0 - b0*a2)s
            # + (b1*a0 - b0*a1) = 0, by the cancellation-safe formula
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                qa, qb, qc = b2 * a1 - b1 * a2, b2 * a0 - b0 * a2, b1 * a0 - b0 * a1
                h = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
                for s in (h / qa, qc / h):
                    inside = (into * s > 0.0) & (into * s <= 0.5 * w)
                    lo, hi = cut(lo, hi, a0 + (a1 + a2 * s) * s, b0 + (b1 + b2 * s) * s,
                                 r.mmask & inside)
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


def _pool(sign, gamma: np.ndarray, sums, cfg: TrainConfig, lo=None, hi=None) -> np.ndarray:
    """Where sign * (gamma_right - gamma_left) < 0, both leaves of gamma
    (..., sides, columns) take the Newton step of the pooled side sums
    (..., sgl/sgr/shl/shr, columns), clipped into the intersection of the
    two sides' feasible intervals lo, hi (sides, columns) when they are
    given."""
    bad = sign * (gamma[..., 1, :] - gamma[..., 0, :]) < 0.0
    if not bad.any():
        return gamma
    sgl, sgr, shl, shr = np.moveaxis(sums, -2, 0)
    pooled = leaf_value(sgl + sgr, shl + shr, cfg.l1, cfg.l2)
    if lo is not None:
        lo_p = np.where(lo[1] > lo[0], lo[1], lo[0])
        hi_p = np.where(hi[1] < hi[0], hi[1], hi[0])
        pooled = np.where(lo_p <= hi_p, _clip(pooled, lo_p, hi_p), 0.0)
    return np.where(bad[..., None, :], pooled[..., None, :], gamma)


def _clamp(rows: _ClampRows, cfg: TrainConfig, gamma: np.ndarray, sums) -> np.ndarray:
    """Clamp leaf-value proposals gamma (sides, rows) into the feasible
    intervals of the bound clamp rows and pool the degree-1 kinks that bend
    against the curvature sign. A row whose clamped pair fails the exact
    check becomes a no-op, which keeps the current state. sums are the
    rows' side sums (sgl, sgr, shl, shr)."""
    lo, hi = _feasible_interval(rows)
    gamma = _pool(rows.kink, _clip(gamma, lo, hi), sums, cfg, lo, hi)
    ok = _worst_after(rows, gamma).min(axis=0) >= -FEAS_SLACK
    return np.where(ok, gamma, 0.0)


# ---------------------------------------------------------------------------
# candidate enumeration


class _Candidates:
    """Every candidate update of a fit, laid out end to end. `works` holds
    each feature's workspace at its index in the store, or None for a
    feature without one, which has no columns; `first_row` each (output,
    feature) pair's first row in the store's coefficient table
    (`model._offsets`), one row per output, for the clamp rows.

    Columns run by feature, then degree, then ascending threshold. A feature
    contributes its fine degree-0 scan (only when S = -1) and its row table
    (global terms, then one coarse scan per split degree). The layout is
    fixed for a whole fit. `sums` is (output, sgl/sgr/shl/shr, column), and
    each feature's `sums` is a view of its own columns, so the scan fills
    them in place. A column is valid for an output when the feature is
    allowed for it and, for a split, both leaves hold min_data_in_leaf
    rows. Because columns are in (feature, degree, threshold) order, the
    first argmax of an output's gains picks the lowest such triple among
    equal gains.
    """

    def __init__(self, works: list[_FeatureWork | None], cfg: TrainConfig, n: int, first_row):
        built = [(k, wk) for k, wk in enumerate(works) if wk is not None]
        cols = []  # per feature: feature, degree, threshold (NaN: global), n_left, pool sign
        for k, wk in built:
            nf, split = wk.n_fine, wk.row_degree > wk.fc.smoothness
            cols.append((np.full(nf + wk.row_degree.size, k),
                         np.append(np.zeros(nf, dtype=int), wk.row_degree),
                         np.append(wk.fb.fine_edges[:nf], np.where(split, wk.row_u, np.nan)),
                         np.append(wk.n_left_fine[:nf], wk.row_n_left),
                         np.append(np.full(nf, wk.fc.monotone), np.zeros_like(wk.row_degree))))
        stops = np.cumsum([c[0].size for c in cols], dtype=int).tolist()
        cols = [np.concatenate(c) for c in zip(*cols)] if cols else [np.empty(0, int)] * 5
        self.feature, self.degree, self.threshold, nl, pool = cols
        self.is_global = np.isnan(self.threshold)
        min_leaf = cfg.min_data_in_leaf
        ok = self.is_global | ((nl >= min_leaf) & (n - nl >= min_leaf))
        allowed = np.zeros((len(first_row), len(works)), dtype=bool)
        self.sums = np.zeros((len(first_row), 4, ok.size))
        # every valid row of a constrained degree >= 1, once per allowed
        # output: one block of clamp rows per (output, feature, degree)
        blocks = []
        for (k, wk), start, stop in zip(built, [0] + stops, stops):
            fc, table = wk.fc, start + wk.n_fine  # the feature's first table row
            allowed[wk.outputs, k] = True
            wk.sums = self.sums[:, :, start:stop]  # so the scan fills its columns in place
            if fc.monotone or fc.curvature:
                for d in range(1, fc.max_degree + 1):
                    rows = np.flatnonzero(ok[table:stop] & (wk.row_degree == d))
                    if rows.size:
                        blocks += [(i, k, wk, d, rows, table + rows) for i in wk.outputs.tolist()]
        self.valid = allowed[:, self.feature] & ok  # (output, column)
        self.pool = np.flatnonzero(pool)  # the fine degree-0 columns of monotone features
        self.pool_sign = pool[self.pool]
        self.clamp = _ClampRows(blocks, cfg.learning_rate, first_row) if blocks else None


def _best_updates(
    cands: _Candidates, store: ParameterStore, cfg: TrainConfig, it: int
) -> list[LogRecord]:
    """Score every candidate of every output in one pass, from this
    iteration's scan, and return each output's best, in output
    order, as a record of iteration it whose losses are not yet set. An
    output with no finite positive gain has no record."""
    if cands.valid.size == 0:
        return []
    sums = cands.sums
    gamma = leaf_value(sums[:, :2], sums[:, 2:], cfg.l1, cfg.l2)  # (output, left/right, column)
    gamma[:, 1, cands.is_global] = 0.0
    c = cands.pool
    if c.size:
        gamma[:, :, c] = _pool(cands.pool_sign, gamma[:, :, c], sums[:, :, c], cfg)
    rows = cands.clamp
    if rows is not None:
        clamped = _clamp(rows.at(store), cfg, gamma[rows.out, :, rows.col].T,
                         sums[rows.out, :, rows.col].T)
        gamma[rows.out, :, rows.col] = clamped.T

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


def _add_update(rec: LogRecord, u: float, lr: float, x: np.ndarray, scores: np.ndarray,
                s: np.ndarray, v: np.ndarray) -> None:
    """Add lr*gamma*(x-u)^d to scores, a column of rows x: gamma_left where
    x < u and gamma_right elsewhere; a global term is one side with u the
    feature minimum. s and v are scratch as long as x."""
    np.subtract(x, u, out=s)  # s < 0 exactly when x < u
    if rec.kind == "global":
        s **= rec.degree  # in place, with the bits of s**d
        np.multiply(lr * rec.gamma_left, s, out=v)
    else:
        # the side as a two-entry table lookup on the comparison's bytes, a
        # third of np.where's time
        side = lr * np.array([rec.gamma_right, rec.gamma_left])  # indexed by s < 0
        side.take((s < 0.0).view(np.uint8), out=v, mode="clip")
        s **= rec.degree
        v *= s
    scores += v


class _RowSet:
    """Rows a fit scores, training or validation: their feature matrix X,
    labels (as `losses.checked_labels` returns them) and scores F, started
    at the intercepts, and per-fit buffers: the link p (None for
    regression), each row's loss term `terms` and a scratch row `tmp`."""

    def __init__(self, ds: Dataset, intercepts: np.ndarray, terms, tmp):
        self.X, self.terms, self.tmp = ds.X, terms, tmp
        self.y = checked_labels(ds.task, ds.y, ds.n_rows, ds.n_outputs)
        self.F = _start_scores(intercepts, ds.n_rows)
        self.p = None if ds.task == "regression" else np.empty_like(self.F)


class _Rows:
    """The per-row work of a fit: one pass over ranges of rows per
    iteration.

    The pass adds the iteration's updates to the scores, then writes the
    link into p and each row's loss term into `terms`, and for the training
    rows the next iteration's g and h into GH. `lanes.cuts` cuts the
    validation rows and then the training rows, as one sequence, into one
    range per lane, so GH is the last array a lane writes before the scan;
    `lanes.gate` on the training rows gives the lanes. The training set's
    `tmp` is GH's last row, which `derivative_rows` writes only after the
    range is done with it. Every row's arithmetic is that of a pass over
    all rows, and each loss is one mean over its set's terms on the
    calling thread, so the losses and the model keep their bits on any
    number of lanes."""

    def __init__(self, train: Dataset, valid: Dataset | None, intercepts: np.ndarray,
                 GH: np.ndarray):
        self.task, self.GH, n = train.task, GH, train.n_rows
        self.train = _RowSet(train, intercepts, np.empty(n), GH[-1, :n])
        self.sets = [self.train] if valid is None else [
            _RowSet(valid, intercepts, *np.empty((2, valid.n_rows))), self.train]
        self.ranges = [[(self.sets[s], r) for s, r in pieces] for pieces in lanes.cuts(
            [len(rs.F) for rs in self.sets], lanes.gate(n))]

    def apply(self, store: ParameterStore, picks: list[LogRecord], lr: float, pool):
        """Fold the picks into the store, add their updates to every set's
        scores, write the training rows' next g and h into GH, and return
        the training and validation (or None) loss."""
        steps = []
        for rec in picks:
            k = _fold(store, rec, lr)
            u = store.layout[k].x_min if rec.kind == "global" else rec.threshold
            steps.append((rec, k, u))
        task, GH, train = self.task, self.GH, self.train

        def part(ranges):
            for rs, r in ranges:
                for rec, k, u in steps:
                    _add_update(rec, u, lr, rs.X[r, k], rs.F[r, rec.output], rs.tmp[r],
                                rs.terms[r])
                if task != "regression":
                    link_rows(task, rs.F, rs.p, rs.tmp, r)
                loss_rows(task, rs.y, rs.F, rs.p, rs.terms, rs.tmp, r)
                if rs is train:
                    derivative_rows(task, rs.y, rs.F, rs.p, GH, r)

        lanes._on_lanes(pool, [functools.partial(part, ranges) for ranges in self.ranges])
        *valid_loss, train_loss = (loss_mean(task, rs.terms) for rs in self.sets)
        return train_loss, valid_loss[0] if valid_loss else None


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


def _start_scores(intercepts: np.ndarray, n: int) -> np.ndarray:
    """Every row's starting scores, column-major, so that the link reads
    and each update writes one contiguous column per output. numpy sums a
    contiguous row of 8 or more values pairwise and a shorter one in order,
    so below 8 outputs the softmax has the same bits in either layout;
    wider scores stay row-major to keep them."""
    out = np.empty((n, intercepts.size), order="F" if intercepts.size < 8 else "C")
    out[:] = intercepts
    return out


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
    edges always come from `dataset` as handed in, before any carving. A
    `valid` set whose feature names, task or output count differ from
    `dataset`'s is a DataError. Constraints the features and outputs cannot
    take are a ConfigError (`ConstraintSpec.validate`). Then the fit's zero
    store must pass `ParameterStore.validate`, the rule `save_model` and
    `load_model` apply, before anything is carved, binned or built: a
    layout of another feature count or one no model may hold, or a target
    name that is not a string, is a DataError, so a fit never makes a model
    that `load_model` would refuse.
    """
    cfg = config or TrainConfig()
    cfg.validate()
    dataset.validate()
    if dataset.n_rows == 0:
        raise DataError("the training set has no rows")
    if valid is not None:
        valid.validate()
        for name, want, got in (("feature_names", list(dataset.feature_names),
                                 list(valid.feature_names)),
                                ("task", dataset.task, valid.task),
                                ("n_outputs", dataset.n_outputs, valid.n_outputs)):
            if got != want:
                raise DataError(f"valid has {name} {got!r}; the training set has {want!r}")
    if layout is None:
        layout = build_bin_layout(dataset)
    if constraints is None:
        constraints = ConstraintSpec.default(dataset)
    constraints.validate(dataset.feature_names, dataset.n_outputs)
    store = zero_init(layout, dataset.task, dataset.n_outputs, dataset.feature_names,
                      constraints, dataset.target_name)
    store.validate()

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
        if ds_train.n_rows == 0:
            raise DataError(f"validation_fraction {cfg.validation_fraction} leaves none of "
                            f"the {dataset.n_rows} rows for training")
    else:
        ds_train = dataset
        ds_valid = valid

    if ds_valid is not None and ds_valid.n_rows == 0:
        ds_valid = None
    use_early_stop = cfg.early_stopping_patience > 0
    if use_early_stop and ds_valid is None:
        raise ConfigError(
            "early stopping requires a non-empty validation split; "
            "set early_stopping_patience=0 or provide validation data"
        )

    task = dataset.task
    intercepts = _initial_intercepts(task, ds_train.y, dataset.n_outputs)
    store.intercepts = intercepts.copy()
    initial_store = store.copy()

    J, F, n_tr = dataset.n_outputs, dataset.n_features, ds_train.n_rows
    log: list[LogRecord] = []
    best_iter = 0
    last_iter = 0

    # the fit's one pool, joined on leaving the block; each stage's gate
    # sets how many jobs it hands the pool, which starts its threads on the
    # first job, so a fit below every gate starts none
    with lanes._lanes_pool() as pool:
        # a workspace for each feature that some output uses and that has a
        # candidate: a global term (S >= 0) or a fine edge (coarse edges are
        # fine edges)
        fcs, mask = constraints.features, constraints.allow_mask
        keep = [k for k, fb in enumerate(layout.features)
                if mask[:, k].any() and (fcs[k].smoothness >= 0 or fb.fine_edges.size)]
        works = [None] * F

        def build(ks):
            for k in ks:
                works[k] = _FeatureWork(ds_train.X[:, k], layout[k], fcs[k],
                                        np.flatnonzero(mask[:, k]))

        # whole features, weighed by the rows they keep: slot_row, t^0..t^D
        jobs = lanes.deal([fcs[k].max_degree + 2 for k in keep], lanes.gate(n_tr))
        lanes._on_lanes(pool, [functools.partial(build, [keep[i] for i in ks]) for ks in jobs])
        cands = _Candidates(works, cfg, n_tr, _offsets(layout, J)[0])
        GH = np.zeros((2 * J, n_tr + 1))  # g then h of the iteration; the last column stays 0
        scan = _Scan([works[k] for k in keep])
        rows = _Rows(ds_train, ds_valid, intercepts, GH)

        def losses(picks: list[LogRecord], when: str):
            """The row pass: fold the picks in, write the next g and h and
            return both losses; a non-finite loss raises."""
            tl, vl = rows.apply(store, picks, cfg.learning_rate, pool)
            if not math.isfinite(tl) or (vl is not None and not math.isfinite(vl)):
                raise NumericError(f"non-finite {when}")
            return tl, vl

        train_loss, valid_loss = losses(
            [], "starting loss: the targets hold NaN/inf or values too large to square")
        start_losses = train_loss, valid_loss
        best_valid = valid_loss if valid_loss is not None else math.inf
        for it in range(1, cfg.max_iterations + 1):
            scan(GH, it == 1 or task != "regression", pool)  # regression's h never changes
            picks = _best_updates(cands, store, cfg, it)
            if not picks:
                last_iter = it - 1
                break
            train_loss, valid_loss = losses(picks, f"loss at iteration {it}")
            for rec in picks:
                rec.train_loss, rec.valid_loss = train_loss, valid_loss
            log += picks
            last_iter = it
            if valid_loss is not None and valid_loss < best_valid:
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
