"""Parameter storage, evaluation, and serialization for additive polynomial models.

Each (output, feature) shape function is stored in two layers:

* a step layer over the fine quantile grid (degree-0 terms), and
* one cubic polynomial per coarse piece, written in the local coordinate
  t = x - lower_edge(piece); the first piece's lower edge is the observed
  feature minimum, which is also the reference point of global terms.

Boosting updates arrive as one-sided monomials gamma*(x - u)^d and are folded
into the affected pieces by exact binomial expansion, so the stored form and
the sum-of-trees form agree to float rounding.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import lanes
from .data import (BinLayout, CATEGORICAL, TASKS, Dataset, FeatureBins, feature_matrix,
                   feature_problems, is_integer, output_problems, real_values)
from .errors import ConfigError, DataError

FORMAT_VERSION = "1"
MAX_DEGREE = 3
# `fine_code` looks up this many values or more through the cell table, twice
# as many when the table needs over two halvings, and fewer through
# searchsorted. The table's dozen numpy calls cost about 20 us whatever the
# size. At 1024 unsorted values, binary_large's 255-edge grids (1-2
# halvings) take 15-25 us through it against 21-50 us through searchsorted,
# 255-edge lognormal grids (4-8 halvings) 32-50 us against 19-27 us, and at
# 2048 values 43-83 us against 105-125 us (timeit, 2-core x86 host).
TABLE_MIN_VALUES = 1024
SEARCH_MAX_EDGES = 8  # grids of at most this many fine edges skip the table
CHUNK_ROWS = 2 * TABLE_MIN_VALUES  # `predict`'s rows per chunk
# `predict` on lanes: a lane's chunk is max(CHUNK_ROWS, LANE_CHUNK_VALUES //
# pairs) rows. At CHUNK_ROWS each chunk's many short numpy calls take the
# interpreter lock in turn, and two lanes are slower than one (binary_large
# 35 ms against 25). Median of 15 bulk calls, 2-core x86 host, one lane
# against two at 2^16, 2^17 and 2^18 values: binary_large (8 pairs, 200,000
# rows) 25 ms against 17, 16 and 28; housing (13 pairs, 101,200 rows) 25
# against 19, 17.5 and 20; choice (20 pairs, 100,000 rows) 18 against 14,
# 14.5 and 19; choice_monotone (8 pairs, 100,000 rows) 9.9 against 7.8, 9.2
# and 13. The README has the ranges.
LANE_CHUNK_VALUES = 2**17
# values between `predict`'s per-pair work arrays: 40 cache lines, so the
# five start at five different offsets in a 4 KiB page (see `_work`)
WORK_GAP = 320


@dataclass
class FeatureConstraint:
    """Shape rules for one feature.

    smoothness S: highest degree whose splits are forbidden (-1 = none); those
    degrees get one global parameter each, making the shape C^S at the knots.
    max_degree D: highest monomial degree. monotone/curvature are sign flags
    (+1, -1, or 0 = unconstrained) on f' and f'' over the observed range.
    """

    smoothness: int = -1
    max_degree: int = MAX_DEGREE
    monotone: int = 0
    curvature: int = 0

    def validate(self, name: str) -> list[str]:
        values = (("D", self.max_degree), ("S", self.smoothness),
                  ("monotone sign", self.monotone), ("curvature sign", self.curvature))
        # 3.0 in (0, 1, 2, 3) holds, but a float degree breaks range() in the fit
        errs = [f"feature {name!r}: {what} must be an integer, got {v!r}"
                for what, v in values if not is_integer(v)]
        if errs:
            return errs
        if self.max_degree not in (0, 1, 2, 3):
            errs.append(f"feature {name!r}: D must be in 0..3, got {self.max_degree}")
        if self.smoothness not in (-1, 0, 1, 2):
            errs.append(f"feature {name!r}: S must be in -1..2, got {self.smoothness}")
        if self.smoothness > self.max_degree - 1:
            errs.append(
                f"feature {name!r}: S <= D-1 required, got S={self.smoothness} D={self.max_degree}"
            )
        if self.monotone not in (-1, 0, 1):
            errs.append(f"feature {name!r}: monotone sign must be -1, 0, or +1")
        if self.curvature not in (-1, 0, 1):
            errs.append(f"feature {name!r}: curvature sign must be -1, 0, or +1")
        if self.curvature != 0 and (self.smoothness < 0 or self.max_degree < 2):
            errs.append(
                f"feature {name!r}: curvature constraint requires S >= 0 and D >= 2"
            )
        return errs


@dataclass
class ConstraintSpec:
    """Per-feature constraints plus the (output, feature) allow-mask."""

    features: list[FeatureConstraint]
    allow_mask: np.ndarray  # (J, K) bool

    @classmethod
    def default(
        cls,
        dataset: Dataset,
        smoothness: int = -1,
        max_degree: int = MAX_DEGREE,
        overrides: dict[str, FeatureConstraint] | None = None,
        outputs_for: dict[str, list[int]] | None = None,
    ) -> "ConstraintSpec":
        """Build a spec with uniform defaults, categorical overrides, and
        optional per-feature settings / output restrictions by name."""
        overrides = overrides or {}
        outputs_for = outputs_for or {}
        feats = []
        for name, kind in zip(dataset.feature_names, dataset.kinds):
            fc = overrides.get(name)
            if fc is None:
                fc = FeatureConstraint(smoothness=smoothness, max_degree=max_degree)
            if kind == CATEGORICAL:
                # step functions only; knot continuity is meaningless between levels
                fc = FeatureConstraint(
                    smoothness=-1, max_degree=0, monotone=fc.monotone, curvature=0
                )
            feats.append(fc)
        mask = np.ones((dataset.n_outputs, dataset.n_features), dtype=bool)
        for name, outs in outputs_for.items():
            if name not in dataset.feature_names:
                raise ConfigError(f"constraint references unknown feature {name!r}")
            k = dataset.feature_names.index(name)
            mask[:, k] = False
            for i in outs:
                if not (is_integer(i) and 0 <= i < dataset.n_outputs):
                    raise ConfigError(f"feature {name!r}: output index must be an integer in "
                                      f"0..{dataset.n_outputs - 1}, got {i!r}")
                mask[i, k] = True
        return cls(features=feats, allow_mask=mask)

    def problems(self, feature_names: list[str], n_outputs: int) -> list[str]:
        """Every way the spec does not fit these features and outputs: a
        constraint per feature whose S, D and signs are integers (not bools,
        `data.is_integer`) in range, and a bool allow mask of shape
        (outputs, features)."""
        errs = []
        if len(self.features) != len(feature_names):
            errs.append(
                f"constraint list has {len(self.features)} entries for "
                f"{len(feature_names)} features"
            )
        else:
            for name, fc in zip(feature_names, self.features):
                errs.extend(fc.validate(name))
        mask = self.allow_mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool):
            errs.append(f"allow mask must be a bool array, got {reprlib.repr(mask)}")
        elif mask.shape != (n_outputs, len(feature_names)):
            errs.append(
                f"allow mask shape {mask.shape} does not match "
                f"(outputs, features) = ({n_outputs}, {len(feature_names)})"
            )
        return errs

    def validate(self, feature_names: list[str], n_outputs: int) -> None:
        """Raise ConfigError listing every problem at once; warn when a
        constrained feature is allowed in several outputs."""
        errs = self.problems(feature_names, n_outputs)
        if errs:
            raise ConfigError("; ".join(errs))
        if n_outputs > 1:
            for k, (name, fc) in enumerate(zip(feature_names, self.features)):
                if (fc.monotone or fc.curvature) and int(self.allow_mask[:, k].sum()) > 1:
                    warnings.warn(
                        f"feature {name!r} is constrained but allowed in multiple "
                        "outputs; the constraint holds per shape function, not for "
                        "the output probabilities",
                        stacklevel=2,
                    )


@dataclass(frozen=True)
class ShapeParams:
    """Parameters of one (output, feature) shape function. Frozen: its
    arrays are edited in place, never rebound (see `ParameterStore`)."""

    step_values: np.ndarray  # (n_fine_bins,)
    poly_coeffs: np.ndarray  # (n_coarse_bins, 4) in local coordinates


@dataclass
class ParameterStore:
    """All model parameters plus the layout needed to evaluate them.

    A store from `zero_init`, `copy` or `load_model` holds its pairs'
    parameters in one table (`_bind`, laid out by `_offsets`): `params` is
    a tuple of tuples of frozen ShapeParams whose `poly_coeffs` and
    `step_values` are contiguous views of it, so in-place edits and
    `accumulate_*` folds write to the table, while a bound pair's arrays
    cannot be rebound nor a bound pair replaced. `predict` reads the table
    in place while `params` is still the tuple bound to it. Replacing
    `params` wholesale is the way to swap arrays: `predict` then builds a
    fresh table of the allowed pairs, and refuses a pair whose arrays do
    not fit the layout."""

    layout: BinLayout
    task: str
    n_outputs: int
    feature_names: list[str]
    constraints: ConstraintSpec
    intercepts: np.ndarray  # (J,)
    params: tuple[tuple[ShapeParams, ...], ...]  # [output][feature]
    se_fine: list[list[np.ndarray | None]] = field(default_factory=list)
    se_coarse: list[list[np.ndarray | None]] = field(default_factory=list)
    target_name: str = "target"
    # `predict`'s plan, cached by `_plan`; never saved or copied
    plan: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the parameter table and the params bound to it, set by `_bind`; never saved or copied
    table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "ParameterStore":
        """A store with its own parameter table (`_bind`) and SE arrays; the
        layout, names and constraints are shared, and `predict`'s plan is
        left unset."""
        def own(rows):
            return [[None if a is None else a.copy() for a in row] for row in rows]

        return _bind(replace(self, intercepts=self.intercepts.copy(),
                             se_fine=own(self.se_fine), se_coarse=own(self.se_coarse)))

    @property
    def has_uncertainty(self) -> bool:
        return bool(self.se_fine)

    def validate(self) -> None:
        """Raise DataError listing every array whose shape does not match the
        layout, every edge list that is not strictly ascending or whose fine
        edges do not lie strictly inside (x_min, x_max), every coarse edge
        that is not a fine edge, every non-finite number, SE accumulators
        missing on an allowed pair or set on a masked one, an unknown task
        or an output count it cannot have (`data.output_problems`), a
        feature or target name that is not a string, a repeated feature name
        or an unknown feature kind (`data.feature_problems`), and every
        problem `ConstraintSpec.problems` finds (S, D and signs that are not
        integers in range, an allow mask that is not bools of the right
        shape). The one rule of what a model may hold: `save_model` and
        `load_model` apply it to the store, and `train` to its zero store
        before it fits."""
        J, K = self.n_outputs, len(self.feature_names)
        se = (self.se_fine, self.se_coarse) if self.has_uncertainty else ()
        if len(self.layout) != K:
            raise DataError(f"layout has {len(self.layout)} features; the model has {K}")
        if (
            self.intercepts.shape != (J,)
            or any(len(t) != J or any(len(row) != K for row in t) for t in (self.params, *se))
        ):
            raise DataError(f"model parameters do not match {J} outputs x {K} features")
        errs = self.constraints.problems(self.feature_names, J)
        errs += feature_problems(self.feature_names, [fb.kind for fb in self.layout.features])
        if not isinstance(self.target_name, str):
            errs.append(f"the target name must be a string, got {self.target_name!r}")
        if self.task not in TASKS:
            errs.append(f"unknown task {self.task!r}, expected one of {TASKS}")
        else:
            errs += output_problems(self.task, J)
        numbers = [("intercepts", self.intercepts)]  # (what, array): checked for finiteness
        mask = self.constraints.allow_mask  # SEs are tied to it once it passes its own rule
        tie = isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (J, K)
        for k, (name, fb) in enumerate(zip(self.feature_names, self.layout.features)):
            for grid, edges in (("fine", fb.fine_edges), ("coarse", fb.coarse_edges)):
                numbers.append((f"feature {name!r}: {grid} edges", edges))
                if edges.ndim != 1 or not (edges[1:] > edges[:-1]).all():
                    errs.append(f"feature {name!r}: {grid} edges are not strictly ascending")
            # so no piece has a negative width (coarse edges are fine edges)
            fine = fb.fine_edges
            if fine.size and not (fb.x_min < fine[0] and fine[-1] < fb.x_max):
                errs.append(f"feature {name!r}: fine edges must lie strictly inside "
                            f"(x_min, x_max) = ({fb.x_min!r}, {fb.x_max!r})")
            try:  # `locate` finds pieces through this table
                fb.piece_of_fine
            except DataError as e:
                errs.append(f"feature {name!r}: {e}")
            numbers.append((f"feature {name!r}: observed range", np.array([fb.x_min, fb.x_max])))
            for i in range(J):
                sp = self.params[i][k]
                arrays = [
                    ("step_values", sp.step_values, (fb.n_fine_bins,)),
                    ("poly_coeffs", sp.poly_coeffs, (fb.n_coarse_bins, MAX_DEGREE + 1)),
                ]
                if se:
                    arrays += [
                        ("SE fine accumulator", self.se_fine[i][k], (fb.n_fine_bins,)),
                        ("SE coarse accumulator", self.se_coarse[i][k],
                         (fb.n_coarse_bins, MAX_DEGREE)),
                    ]
                    for what, arr, _ in arrays[2:]:
                        # `shape_ci` reads an allowed pair's SEs; a masked pair has none
                        if tie and (arr is None) == mask[i, k]:
                            errs.append(f"feature {name!r}, output {i}: {what} " + (
                                "missing on an allowed pair" if arr is None
                                else "set on a masked pair"))
                for what, arr, want in arrays:
                    if arr is None:  # a masked pair has no SE accumulators
                        continue
                    what = f"feature {name!r}, output {i}: {what}"
                    numbers.append((what, arr))
                    if arr.shape != want:
                        errs.append(f"{what} has shape {arr.shape}, expected {want}")
        if not np.isfinite(np.concatenate([a.ravel() for _, a in numbers])).all():
            errs += [f"{what} not finite" for what, a in numbers if not np.isfinite(a).all()]
        if errs:
            raise DataError("invalid model: " + "; ".join(errs))


def zero_init(
    layout: BinLayout,
    task: str,
    n_outputs: int,
    feature_names: list[str],
    constraints: ConstraintSpec,
    target_name: str = "target",
) -> ParameterStore:
    return _bind(ParameterStore(
        layout=layout,
        task=task,
        n_outputs=n_outputs,
        feature_names=feature_names,
        constraints=constraints,
        intercepts=np.zeros(n_outputs),
        params=(),
        target_name=target_name,
    ), ())


def _offsets(layout: BinLayout, n_outputs: int) -> np.ndarray:
    """The parameter table's one layout rule. Pairs run in (output, feature)
    order, each after the one before: its coarse pieces' rows of four
    coefficients (local, degree 0 first) in the coefficient table, which
    ends in one zero row, and its fine bins' values in the step table.
    Returns each pair's first coefficient row and first step entry as one
    (2, outputs, features + 1) array, rows then entries, whose entries
    [:, i, features] are where output i's pairs end."""
    ends = np.array([(0, 0)] + [(fb.n_coarse_bins, fb.n_fine_bins) for fb in layout.features]
                    ).cumsum(axis=0).T  # (rows/entries, features + 1) within one output
    return ends[:, None] + ends[:, None, -1:] * np.arange(n_outputs)[:, None]


def _table(store: ParameterStore, pairs) -> tuple[np.ndarray, np.ndarray, list]:
    """A fresh table (`_offsets`) of the current arrays of the given
    (output, feature) pairs, every other entry, the zero last row included,
    left at 0, and every pair's two slots of it, [output][feature] =
    (coefficient rows, step entries). `predict` and `booster._ClampRows.at`
    gather from the table without checking each index, so a pair whose
    arrays are not shaped as its slots, (coarse bins, 4) and (fine bins,),
    or that params do not hold, raises DataError."""
    rows, entries = _offsets(store.layout, store.n_outputs).tolist()
    n_rows, n_entries = (rows[-1][-1], entries[-1][-1]) if rows else (0, 0)  # 0 outputs: no pair
    coef, steps = np.zeros((n_rows + 1, MAX_DEGREE + 1)), np.zeros(n_entries)
    slots = [[(coef[r0:r1], steps[e0:e1]) for r0, r1, e0, e1 in zip(r, r[1:], e, e[1:])]
             for r, e in zip(rows, entries)]
    try:
        for i, k in pairs:
            sp, (c, s) = store.params[i][k], slots[i][k]
            if np.shape(sp.poly_coeffs) != c.shape or np.shape(sp.step_values) != s.shape:
                raise DataError(f"output {i}, feature {k}: parameters do not match the bin layout")
            c[...], s[...] = sp.poly_coeffs, sp.step_values
    except IndexError as exc:  # params hold fewer outputs or features than the store
        raise DataError("model parameters do not match the bin layout") from exc
    return coef, steps, slots


def _bind(store: ParameterStore, pairs=None) -> ParameterStore:
    """The store, given a fresh table (`_table`) of pairs, by default every
    pair, and as params a tuple of tuples of frozen ShapeParams of its
    slots. The table records the layout object, output count and params it
    was bound for, for `_read_table`."""
    every = np.ndindex(store.n_outputs, len(store.layout))
    coef, steps, slots = _table(store, every if pairs is None else pairs)
    store.params = tuple(tuple(ShapeParams(s, c) for c, s in row) for row in slots)
    store.table = (store.layout, store.n_outputs, store.params, coef, steps)
    return store


def fine_code(fb: FeatureBins, x: np.ndarray) -> np.ndarray:
    """Fine bin of each value; a value on a knot belongs to the bin above it.
    Equal to ``np.searchsorted(fb.fine_edges, x, side="right")`` for every
    float, NaN and +-inf included; inputs of TABLE_MIN_VALUES values or more
    (twice that when the table needs more than two halvings) go through the
    cell table `fb.fine_table`, unless the grid has at most SEARCH_MAX_EDGES
    edges, where a search is faster on a 2048-row predict chunk."""
    n = getattr(x, "size", 0)  # np.size adds 0.2 us per call
    if (n < TABLE_MIN_VALUES or fb.fine_edges.size <= SEARCH_MAX_EDGES
            or (n < 2 * TABLE_MIN_VALUES and fb.fine_table.steps > 2)):
        return fb.fine_edges.searchsorted(x, side="right")  # 2 us less than np.searchsorted
    return fb.fine_table.codes(x)


def locate(fb: FeatureBins, x: np.ndarray, fcode: np.ndarray):
    """Coarse piece and piece-local offset t of each value, given its fine
    code. Pieces are right-open, so a value on a knot belongs to the piece
    above it."""
    piece = fb.piece_of_fine[fcode]
    return piece, x - fb.coarse_lower_edges[piece]


def shift(delta, d: int, scale: float = 1.0) -> np.ndarray:
    """Local coefficients of scale*(x - u)^d on pieces whose lower edges sit at
    delta = lower - u: (x - u)^d = sum_m C(d,m) delta^(d-m) t^m, so row m
    (m = 0..d, on a new first axis) is scale*C(d,m)*delta^(d-m)."""
    return np.array([scale * math.comb(d, m) * delta ** (d - m) for m in range(d + 1)])


def horner(coef: np.ndarray, rows: np.ndarray, t: np.ndarray, order: int = 0, step=None,
           out=None):
    """Piece cubics at local offsets t (order 0) or their first/second derivative,
    built in place as ((c3*t + c2)*t + c1)*t + step + c0, (3*c3*t + 2*c2)*t + c1
    or 6*c3*t + 2*c2. coef is degree-first: coef[m] holds every piece's
    coefficient of t^m, and rows picks each value's piece. step, when given, is
    the step layer's values and each value's index in them. out, when given,
    is two arrays shaped like t, and the caller vouches that every index is in
    range: the result is built in out[0], each gathered number passes through
    out[1].
    """
    val, c = out if out is not None else (np.empty(t.shape), np.empty(t.shape))
    mode = "raise" if out is None else "clip"

    def term(values: np.ndarray, index: np.ndarray, scale: int = 1) -> np.ndarray:
        values.take(index, out=c, mode=mode)
        return c if scale == 1 else np.multiply(c, scale, out=c)

    coef[3].take(rows, out=val, mode=mode)
    if order:
        val *= math.perm(3, order)
    for m in range(2, order - 1, -1):
        val *= t
        if m == 0 and step is not None:
            val += term(*step)
        val += term(coef[m], rows, math.perm(m, order))
    return val


def _check_index(what: str, v, n: int) -> None:
    if not (is_integer(v) and 0 <= v < n):
        raise ConfigError(f"{what} index must be an integer in 0..{n - 1}, got {v!r}")


def _check_order(order, lowest: int) -> None:
    """Refuse, with ConfigError, a derivative order that is not an integer
    in lowest..2, where math.perm would fail on a float or a negative order
    with a bare error and a higher order would give gaps no caller asks
    for."""
    if is_integer(order) and lowest <= order <= 2:
        return
    allowed = ", ".join(map(str, range(lowest, 2))) + " or 2"
    raise ConfigError(f"order must be {allowed}, got {order!r}")


def check_pair(store: ParameterStore, i, k) -> None:
    """Refuse, with ConfigError, an output index outside 0..J-1 or a feature
    index outside 0..K-1; a negative or non-integer index is refused too,
    where list indexing would wrap it or fail with a bare IndexError."""
    _check_index("output", i, store.n_outputs)
    _check_index("feature", k, len(store.feature_names))


def _evaluate(store: ParameterStore, i: int, k: int, x, order: int):
    """Shape function i, k (order 0, with the step layer) or its derivative
    of that order at x, a scalar or a vector."""
    check_pair(store, i, k)
    scalar = np.isscalar(x)
    xv = np.atleast_1d(real_values(x, "x"))
    fb, sp = store.layout[k], store.params[i][k]
    fcode = fine_code(fb, xv)
    piece, t = locate(fb, xv, fcode)
    step = None if order else (sp.step_values, fcode)
    val = horner(sp.poly_coeffs.T, piece, t, order, step=step)
    return float(val[0]) if scalar else val


def evaluate_shape(store: ParameterStore, i: int, k: int, x) -> np.ndarray | float:
    """Shape-function value f_ik at x (scalar or vector)."""
    return _evaluate(store, i, k, x, 0)


def evaluate_derivative(store: ParameterStore, i: int, k: int, x, order: int):
    """First or second derivative of the shape function; right-hand value at knots.

    The step layer is piecewise constant, so only the polynomial layer
    contributes.
    """
    _check_order(order, 1)
    return _evaluate(store, i, k, x, order)


def _check_fold(store: ParameterStore, i, k, d, split: bool, values: tuple) -> None:
    """Refuse, with ConfigError, a fold the model cannot hold: an index
    outside the model (`check_pair`); a pair its allow mask leaves out; a
    degree that is not an integer in 0..D of the feature, or in S+1..D for
    a split, as a split of degree <= S breaks C^S at its threshold; a gamma
    or learning rate that is not finite."""
    check_pair(store, i, k)
    fc, name = store.constraints.features[k], store.feature_names[k]
    if not store.constraints.allow_mask[i, k]:
        raise ConfigError(f"output {i} does not use feature {name!r}: the pair is masked out")
    lowest = fc.smoothness + 1 if split else 0
    if not (is_integer(d) and lowest <= d <= fc.max_degree):
        raise ConfigError(f"{'split' if split else 'global'} degree of feature {name!r} must "
                          f"be an integer in {lowest}..{fc.max_degree}, got {d!r}")
    try:
        ok = all(map(math.isfinite, values))
    except TypeError:  # not a real number
        ok = False
    if not ok:
        raise ConfigError(f"gamma and learning rate must be finite, got {values!r}")


def _fold(store: ParameterStore, i: int, k: int, d: int, u: float, sides, lr: float) -> None:
    """Add lr*gamma*(x - u)^d to shape i, k over each (part, gamma) of sides:
    to the fine step values of the part for d = 0, else to the local
    coefficients of the coarse pieces of the part, expanded by `shift`."""
    fb, sp = store.layout[k], store.params[i][k]
    for part, gamma in sides:
        if d == 0:
            sp.step_values[part] += lr * gamma
        else:
            delta = fb.coarse_lower_edges[part] - u
            sp.poly_coeffs[part, : d + 1] += shift(delta, d, lr * gamma).T


def accumulate_update(
    store: ParameterStore,
    i: int,
    k: int,
    d: int,
    threshold: float,
    gamma_left: float,
    gamma_right: float,
    learning_rate: float,
) -> None:
    """Fold one two-leaf monomial update into the stored form.

    Degree 0 updates add constants to the fine step layer on each side of the
    threshold (a fine-grid edge). Degree >= 1 updates add gamma*(x-u)^d per
    side (u a coarse-grid edge), expanded into each affected piece's local
    coordinates by `shift`; a side with gamma = 0 is left untouched. A
    fold the model cannot hold raises ConfigError (see `_check_fold`), and
    so does a threshold that is not an edge of its grid.
    """
    _check_fold(store, i, k, d, True, (gamma_left, gamma_right, learning_rate))
    fb = store.layout[k]
    grid, edges = ("fine", fb.fine_edges) if d == 0 else ("coarse", fb.coarse_edges)
    j = int(np.searchsorted(edges, threshold))
    if j >= edges.size or edges[j] != threshold:
        raise ConfigError(f"threshold {threshold!r} is not a {grid}-grid edge")
    sides = [(slice(0, j + 1), gamma_left), (slice(j + 1, None), gamma_right)]
    _fold(store, i, k, d, threshold, [s for s in sides if d == 0 or s[1] != 0.0], learning_rate)


def accumulate_global(
    store: ParameterStore, i: int, k: int, d: int, gamma: float, learning_rate: float
) -> None:
    """Fold a global monomial gamma*(x - x_ref)^d into the stored form.

    x_ref is the observed feature minimum. d = 0 adds a constant to every fine
    step value; d >= 1 expands into every coarse piece, also when gamma = 0.
    A fold the model cannot hold raises ConfigError (see `_check_fold`).
    """
    _check_fold(store, i, k, d, False, (gamma, learning_rate))
    _fold(store, i, k, d, store.layout[k].x_min, [(slice(None), gamma)], learning_rate)


def _plan(store: ParameterStore) -> tuple:
    """`predict`'s plan for the store's layout object, output count and
    allow-mask contents, cached on the store; it holds no parameter value.
    Pairs are the allowed (output, feature) pairs in output order, then
    feature order, and a pair's slot is its rank within its output. In
    order: the layout, the key, the used features and their bins, per used
    feature its first entry in `lower`, per (used feature, fine bin) its
    piece's lower edge, the pairs, per pair its used feature and its first
    entry in the step table, per step-table entry its piece's row in the
    coefficient table (the table laid out by `_offsets`), per pair its row
    in the (slot, output) stack, and the slot count. An allow mask of
    another shape than (outputs, features) raises DataError."""
    layout, mask, plan = store.layout, store.constraints.allow_mask, store.plan
    key = (store.n_outputs, mask.shape, mask.tobytes())
    if plan is None or plan[0] is not layout or plan[1] != key:
        if mask.shape != (store.n_outputs, len(layout)):
            raise DataError(f"allow mask shape {mask.shape} does not match (outputs, features)")
        used, (outs, ks) = np.flatnonzero(mask.any(axis=0)), np.nonzero(mask)
        bins = [layout[k] for k in used]
        slot = np.arange(outs.size) - np.searchsorted(outs, outs)
        rows, entries = _offsets(layout, store.n_outputs)
        plan = store.plan = (
            layout, key, used, bins,
            np.cumsum([0] + [fb.n_fine_bins for fb in bins])[:-1, None],
            np.concatenate([[]] + [fb.coarse_lower_edges[fb.piece_of_fine] for fb in bins]),
            list(zip(outs.tolist(), ks.tolist())),
            np.searchsorted(used, ks),
            entries[outs, ks, None],
            np.concatenate([np.zeros(0, int)] + [first + fb.piece_of_fine for row in rows
                                                 for first, fb in zip(row, layout.features)]),
            slot * len(mask) + outs,
            int(slot.max(initial=-1)) + 1)
    return plan


def _read_table(store: ParameterStore) -> tuple[np.ndarray, np.ndarray]:
    """The store's table (`_bind`) while it was bound for the store's layout
    object, output count and params: `params` is the tuple bound to it, and
    its frozen pairs hold the table's views. Otherwise, as after `params`
    is replaced, a fresh table of the allowed pairs (`_table`), masked
    pairs left at 0. The store is not changed."""
    table = store.table
    if (table is not None and table[0] is store.layout and table[1] == store.n_outputs
            and table[2] is store.params):
        return table[3], table[4]
    return _table(store, _plan(store)[6])[:2]


def _work(P: int, J: int, slots: int, m: int) -> tuple:
    """One lane's work arrays for chunks of up to m rows: per pair its
    (pair, fine bin) entries, piece rows, t, values and gathered numbers;
    the (slot, output) stack, whose slots past an output's last pair hold
    -0.0, which leaves every sum unchanged; and the outputs' sums.

    The five per-pair arrays share one buffer, each WORK_GAP values past
    the end of the one before, so that arrays of a power-of-two size do not
    start on the same cache sets. binary_large's (8, 16384) arrays are
    1 MiB each; laid back to back on huge pages, the lane's chunk loop ran
    at about half speed."""
    n = P * m
    if n < WORK_GAP:  # arrays this small share a page anyway; a one-row call stays lean
        (at, rows), (t, val, c) = np.empty((2, P, m), np.intp), np.empty((3, P, m))
    else:
        buf = np.empty((5, n + WORK_GAP))[:, :n].reshape(5, P, m)
        # intp is the size of float64 on 64-bit hosts
        (at, rows), (t, val, c) = buf[:2].view(np.intp), buf[2:]
    return at, rows, t, val, c, np.full((slots * J, m), -0.0), np.empty((J, m))


def _predict_rows(X, F, codes, start: int, stop: int, chunk: int, work: tuple, plan: tuple,
                  coef, steps, intercepts) -> None:
    """`predict`'s rows start..stop into F and codes, in chunks of `chunk`
    rows, in the work arrays `_work` made for min(stop - start, chunk)
    rows."""
    _, _, used, bins, fine_off, lower, _, feature, bin_off, coef_row, dest, slots = plan
    J, K = F.shape[1], used.size
    at, rows, t, val, c, stack, acc = work
    m = acc.shape[1]
    for lo in range(start, stop, chunk):
        if stop - lo < m:  # a last, shorter chunk works in the arrays' first columns
            m = stop - lo
            at, rows, t, val, c, stack, acc = (a[:, :m] for a in work)
        # each used feature serves a pair, so x, its fine codes and their pieces'
        # lower edges fit in the first rows of arrays that are free until later
        x, fcode, lo_edge = val[:K], rows[:K], c[:K]
        X[lo : lo + m].T.take(used, axis=0, out=x, mode="clip")
        for f, k in enumerate(used):
            fcode[f] = fine_code(bins[f], x[f])
            if codes[k] is not None:
                codes[k][lo : lo + m] = fcode[f]
        fcode.take(feature, axis=0, out=at, mode="clip")
        at += bin_off  # each pair's entry in the step table
        fcode += fine_off  # each feature's (feature, fine bin) entry
        x -= lower.take(fcode, out=lo_edge, mode="clip")  # t, once per feature
        x.take(feature, axis=0, out=t, mode="clip")
        coef_row.take(at, out=rows, mode="clip")
        horner(coef, rows, t, step=(steps, at), out=(val, c))
        stack[dest] = val
        acc[...] = intercepts[:, None]
        for s in range(slots):
            acc += stack[s * J : (s + 1) * J]
        F[lo : lo + m] = acc.T


def predict(store: ParameterStore, X: np.ndarray, *, return_codes: bool = False):
    """Raw scores F, shape (N, J). Masked (output, feature) pairs are skipped
    outright, so their columns cannot influence the output even in principle.
    An X that is not a finite matrix of real numbers with one column per
    feature (`data.feature_matrix`) raises DataError.

    Rows go in chunks of CHUNK_ROWS: fine codes per used feature, then one
    `horner` over every pair, whose values each output adds to its intercept
    in feature order, one slot at a time. Parameters are read from the
    store's table in place while it was bound for the store's layout
    object, output count and params (`_read_table`); otherwise, as after
    `store.params` is replaced wholesale, the call builds a fresh table of
    the allowed pairs' current arrays, and leaves the store as it is. A
    masked pair's arrays are never read, and an allowed pair whose arrays
    are not shaped (fine bins,) and (coarse bins, 4) raises DataError. So
    in-place edits, `accumulate_*` folds, replaced params, mask edits and a
    new layout all show in the next call. On more than one lane (`lanes.gate` on the rows),
    `lanes.cuts` cuts the rows into one contiguous range per lane, each run
    in chunks of about LANE_CHUNK_VALUES (pair, row) values; every row's
    arithmetic is the same in any chunk, so F and the codes keep their bits
    on any number of lanes.

    With return_codes, returns (F, codes): codes[k] holds feature k's fine
    codes in the smallest unsigned type that fits its fine bins, or None
    where every output masks the feature."""
    X = feature_matrix(X, store.feature_names)
    plan = _plan(store)
    _, _, used, bins, _, _, pairs, _, _, _, _, slots = plan
    coef, steps = _read_table(store)
    coef = coef.T.copy()  # degree-first, as `horner` gathers it
    n, J, P = X.shape[0], store.n_outputs, len(pairs)
    F = np.empty((n, J))
    codes = [None] * X.shape[1]
    if return_codes:
        for k, fb in zip(used, bins):
            codes[k] = np.empty(n, np.min_scalar_type(fb.n_fine_bins - 1))
    if (L := lanes.gate(n)) == 1:
        _predict_rows(X, F, codes, 0, n, CHUNK_ROWS, _work(P, J, slots, min(n, CHUNK_ROWS)),
                      plan, coef, steps, store.intercepts)
    else:
        # this thread makes every lane's work arrays: arrays a worker makes
        # stay in its thread's malloc arena once freed, and raise the peak RSS
        chunk = max(CHUNK_ROWS, LANE_CHUNK_VALUES // max(P, 1))
        jobs = [functools.partial(_predict_rows, X, F, codes, r.start, r.stop, chunk,
                                  _work(P, J, slots, min(r.stop - r.start, chunk)), plan, coef,
                                  steps, store.intercepts)
                for [(_, r)] in lanes.cuts([n], L)]
        with lanes._lanes_pool() as pool:
            lanes._on_lanes(pool, jobs)
    return (F, codes) if return_codes else F


def knot_gaps(store: ParameterStore, i: int, k: int, order: int = 0) -> np.ndarray:
    """One-sided analytic gap (right minus left) at every fine-grid knot.

    order 0 includes the step layer; orders 1 and 2 are polynomial-only. Used
    by the smoothness tests: a C^S fit must show zero gaps up to order S.
    Any other order is a ConfigError.
    """
    check_pair(store, i, k)
    _check_order(order, 0)
    fb = store.layout[k]
    sp = store.params[i][k]
    edges = fb.fine_edges
    if edges.size == 0:
        return np.empty(0)
    # piece at/above each knot vs the piece holding points just below it
    p_right, t_right = locate(fb, edges, fine_code(fb, edges))
    p_left = np.where(np.isin(edges, fb.coarse_edges), p_right - 1, p_right)
    t_left = edges - fb.coarse_lower_edges[p_left]
    coef = sp.poly_coeffs.T
    gaps = horner(coef, p_right, t_right, order) - horner(coef, p_left, t_left, order)
    if order == 0:
        gaps = gaps + (sp.step_values[1:] - sp.step_values[:-1])
    return gaps


# ---------------------------------------------------------------------------
# serialization


def _plain(obj):
    """Python value of a numpy array or scalar, for the JSON encoder."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# The C encoder writes every float with float.__repr__, the shortest decimal
# that parses back to the same double, so a load gives back the exact bits.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, default=_plain)


def _refuse(label: str, want: str, v):
    raise DataError(f"{label} must be {want}, got {reprlib.repr(v)}")


def _json(want: str, *types: type, convert=lambda v: v):
    """A reader of a JSON value of one of types (int() would truncate 2.7 and
    accept "3" or true): it takes the value and a label naming the feature
    and key, and raises DataError for any other value."""
    return lambda v, label: convert(v) if type(v) in types else _refuse(label, want, v)


_json_int, _string = _json("a JSON integer", int), _json("a JSON string", str)
_number = _json("a JSON number", int, float, convert=float)


def _array(v, label: str, kinds: str = "iuf", dtype=float) -> np.ndarray:
    """JSON numbers, or with kinds "b" JSON booleans, as an array of dtype;
    an empty array passes."""
    a = np.asarray(v)
    if a.size and a.dtype.kind not in kinds:
        _refuse(label, "JSON booleans" if kinds == "b" else "JSON numbers", v)
    return a.astype(dtype, copy=False)


# The model file's keys, in file order; `_document` writes them and
# `_from_document` reads them. A feature's entry is its name, then (key,
# attribute, reader) for each FeatureBins and then each FeatureConstraint
# attribute. A pair's entry holds the ShapeParams attributes, an SE entry
# one array of each of the store's SE lists.
_NAME_KEY = "name"
_FEATURE_KEYS = (
    (FeatureBins, (("kind", "kind", _string), ("fine_edges", "fine_edges", _array),
                   ("coarse_edges", "coarse_edges", _array), ("x_min", "x_min", _number),
                   ("x_max", "x_max", _number))),
    (FeatureConstraint, (("S", "smoothness", _json_int), ("D", "max_degree", _json_int),
                         ("monotone", "monotone", _json_int),
                         ("curvature", "curvature", _json_int))),
)
_PAIR_KEYS = ("step_values", "poly_coeffs")
_SE_KEYS = (("fine", "se_fine"), ("coarse", "se_coarse"))


def _document(store: ParameterStore) -> dict:
    """The model file's JSON document; numpy values are left for `_plain`."""
    feats = [{_NAME_KEY: name, **{key: getattr(obj, attr) for obj, (_, keys)
                                  in zip(held, _FEATURE_KEYS) for key, attr, _ in keys}}
             for name, *held in zip(store.feature_names, store.layout.features,
                                    store.constraints.features)]
    return {
        "format_version": FORMAT_VERSION,
        "task": store.task,
        "outputs": store.n_outputs,
        "target_column": store.target_name,
        "features": feats,
        "allow_mask": store.constraints.allow_mask,
        "intercepts": store.intercepts,
        "params": [[{key: getattr(sp, key) for key in _PAIR_KEYS} for sp in row]
                   for row in store.params],
        "se_accumulators": [
            [{key: getattr(store, attr)[i][k] for key, attr in _SE_KEYS}
             for k in range(len(store.feature_names))]
            for i in range(store.n_outputs)
        ] if store.has_uncertainty else None,
    }


def dumps_model(store: ParameterStore) -> str:
    """The model as JSON text. A store that `load_model` would refuse raises
    DataError (`ParameterStore.validate`)."""
    store.validate()
    return _ENCODER.encode(_document(store))


def save_model(store: ParameterStore, path) -> None:
    """Write the model to path. The text is built before the file is opened,
    so a refused store leaves an existing file untouched."""
    text = dumps_model(store) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> ParameterStore:
    """Read a model file. Raises DataError when the file is not a polygam
    model: not JSON, not a JSON object, a missing key or a value of the
    wrong type, another format version, or a store that
    `ParameterStore.validate` refuses."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"{path} is not a JSON model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} holds a JSON {type(doc).__name__}, not a model object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version!r}, expected {FORMAT_VERSION!r}"
        )
    try:
        store = _from_document(doc)
    except KeyError as exc:
        raise DataError(f"{path} is not a polygam model: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise DataError(f"{path} is not a polygam model: {exc}") from exc
    store.validate()
    return _bind(store)


def _from_document(doc: dict) -> ParameterStore:
    """The store a model document describes, before validation. A value of
    the wrong JSON type raises DataError naming its feature and key."""
    names, feats = [], []  # feats: (FeatureBins, FeatureConstraint) per feature
    for k, f in enumerate(doc["features"]):
        names.append(name := _string(f[_NAME_KEY], f"feature {k}: {_NAME_KEY}"))
        feats.append([cls(**{attr: read(f[key], f"feature {name!r}: {key}")
                             for key, attr, read in keys}) for cls, keys in _FEATURE_KEYS])
    named = dict(enumerate(names)).get  # a feature past the last is named by its index

    def pairs(rows, read):  # read(entry, label) over each (output, feature) entry
        return [[read(e, f"feature {named(k, k)!r}, output {i}: ") for k, e in enumerate(row)]
                for i, row in enumerate(rows)]

    store = ParameterStore(
        layout=BinLayout([fb for fb, _ in feats]),
        task=doc["task"],
        n_outputs=_json_int(doc["outputs"], "outputs"),
        feature_names=names,
        constraints=ConstraintSpec([fc for _, fc in feats],
                                   _array(doc["allow_mask"], "allow_mask", "b", bool)),
        intercepts=_array(doc["intercepts"], "intercepts"),
        params=pairs(doc["params"], lambda e, at: ShapeParams(
            **{key: _array(e[key], at + key) for key in _PAIR_KEYS})),
        target_name=_string(doc.get("target_column", "target"), "target_column"),
    )
    se_acc = doc.get("se_accumulators")
    if se_acc is not None:
        for key, attr in _SE_KEYS:
            setattr(store, attr, pairs(se_acc, lambda e, at: None if e[key] is None
                                       else _array(e[key], f"{at}SE {key}")))
    return store
