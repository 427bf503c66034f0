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

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import BinLayout, CATEGORICAL, TASKS, Dataset, FeatureBins, refuse_nonfinite
from .errors import ConfigError, DataError

FORMAT_VERSION = "1"
MAX_DEGREE = 3
# `fine_code` looks up this many values or more through the cell table and
# fewer through np.searchsorted. The table's dozen numpy calls cost about
# 20 us per call whatever the size, against 2.4 us for one value and 12 us
# for a sorted 512-value grid through searchsorted (255 edges); at 1024
# unsorted values the table takes 29 us against 46 us, and at 16384 values
# 134 us against 1351 us (timeit, 2-core x86 host). One-row `predict` calls
# and shape grids stay on searchsorted.
TABLE_MIN_VALUES = 1024


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
        errs = []
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
                if not 0 <= i < dataset.n_outputs:
                    raise ConfigError(
                        f"feature {name!r}: output index {i} out of range 0..{dataset.n_outputs - 1}"
                    )
                mask[i, k] = True
        return cls(features=feats, allow_mask=mask)

    def problems(self, feature_names: list[str], n_outputs: int) -> list[str]:
        """Every way the spec does not fit these features and outputs."""
        errs = []
        if len(self.features) != len(feature_names):
            errs.append(
                f"constraint list has {len(self.features)} entries for "
                f"{len(feature_names)} features"
            )
        else:
            for name, fc in zip(feature_names, self.features):
                errs.extend(fc.validate(name))
        if self.allow_mask.shape != (n_outputs, len(feature_names)):
            errs.append(
                f"allow mask shape {self.allow_mask.shape} does not match "
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


@dataclass
class ShapeParams:
    """Parameters of one (output, feature) shape function."""

    step_values: np.ndarray  # (n_fine_bins,)
    poly_coeffs: np.ndarray  # (n_coarse_bins, 4) in local coordinates

    def copy(self) -> "ShapeParams":
        return ShapeParams(self.step_values.copy(), self.poly_coeffs.copy())


@dataclass
class ParameterStore:
    """All model parameters plus the layout needed to evaluate them."""

    layout: BinLayout
    task: str
    n_outputs: int
    feature_names: list[str]
    constraints: ConstraintSpec
    intercepts: np.ndarray  # (J,)
    params: list[list[ShapeParams]]  # [output][feature]
    se_fine: list[list[np.ndarray | None]] = field(default_factory=list)
    se_coarse: list[list[np.ndarray | None]] = field(default_factory=list)
    target_name: str = "target"

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            layout=self.layout,
            task=self.task,
            n_outputs=self.n_outputs,
            feature_names=self.feature_names,
            constraints=self.constraints,
            intercepts=self.intercepts.copy(),
            params=[[p.copy() for p in row] for row in self.params],
            se_fine=[[a.copy() if a is not None else None for a in row] for row in self.se_fine],
            se_coarse=[
                [a.copy() if a is not None else None for a in row] for row in self.se_coarse
            ],
            target_name=self.target_name,
        )

    @property
    def has_uncertainty(self) -> bool:
        return bool(self.se_fine)

    def validate(self) -> None:
        """Raise DataError listing every array whose shape does not match the
        layout, every edge list that is not strictly ascending, every coarse
        edge that is not a fine edge, every non-finite number, an unknown
        task, and every problem `ConstraintSpec.problems` finds (S, D and
        sign ranges, the allow mask's shape)."""
        J, K = self.n_outputs, len(self.feature_names)
        se = (self.se_fine, self.se_coarse) if self.has_uncertainty else ()
        if (
            len(self.layout) != K
            or self.intercepts.shape != (J,)
            or any(len(t) != J or any(len(row) != K for row in t) for t in (self.params, *se))
        ):
            raise DataError(f"model parameters do not match {J} outputs x {K} features")
        errs = self.constraints.problems(self.feature_names, J)
        if self.task not in TASKS:
            errs.append(f"unknown task {self.task!r}, expected one of {TASKS}")
        numbers = [("intercepts", self.intercepts)]  # (what, array): checked for finiteness
        for k, (name, fb) in enumerate(zip(self.feature_names, self.layout.features)):
            for grid, edges in (("fine", fb.fine_edges), ("coarse", fb.coarse_edges)):
                numbers.append((f"feature {name!r}: {grid} edges", edges))
                if edges.ndim != 1 or not (edges[1:] > edges[:-1]).all():
                    errs.append(f"feature {name!r}: {grid} edges are not strictly ascending")
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
    params = [
        [
            ShapeParams(
                step_values=np.zeros(layout[k].n_fine_bins),
                poly_coeffs=np.zeros((layout[k].n_coarse_bins, MAX_DEGREE + 1)),
            )
            for k in range(len(layout))
        ]
        for _ in range(n_outputs)
    ]
    return ParameterStore(
        layout=layout,
        task=task,
        n_outputs=n_outputs,
        feature_names=feature_names,
        constraints=constraints,
        intercepts=np.zeros(n_outputs),
        params=params,
        target_name=target_name,
    )


def fine_code(fb: FeatureBins, x: np.ndarray) -> np.ndarray:
    """Fine bin of each value; a value on a knot belongs to the bin above it.
    Equal to ``np.searchsorted(fb.fine_edges, x, side="right")`` for every
    float, NaN and +-inf included; inputs of TABLE_MIN_VALUES values or more
    go through the cell table `fb.fine_table`."""
    if getattr(x, "size", 0) < TABLE_MIN_VALUES:  # np.size adds 0.2 us per call
        return np.searchsorted(fb.fine_edges, x, side="right")
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


def horner(sp: ShapeParams, piece: np.ndarray, t: np.ndarray, order: int = 0, fcode=None):
    """Piece cubics at local offsets t (order 0) or their first/second derivative.

    With fine codes given, order 0 adds the step layer before the constant
    term: step + ((c3*t + c2)*t + c1)*t + c0.
    """
    c = sp.poly_coeffs[piece]
    if order == 1:
        return (3.0 * c[:, 3] * t + 2.0 * c[:, 2]) * t + c[:, 1]
    if order == 2:
        return 6.0 * c[:, 3] * t + 2.0 * c[:, 2]
    val = ((c[:, 3] * t + c[:, 2]) * t + c[:, 1]) * t
    if fcode is not None:
        val = sp.step_values[fcode] + val
    return val + c[:, 0]


def evaluate_shape(store: ParameterStore, i: int, k: int, x) -> np.ndarray | float:
    """Shape-function value f_ik at x (scalar or vector)."""
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    fb = store.layout[k]
    fcode = fine_code(fb, xv)
    piece, t = locate(fb, xv, fcode)
    val = horner(store.params[i][k], piece, t, fcode=fcode)
    return float(val[0]) if scalar else val


def evaluate_derivative(store: ParameterStore, i: int, k: int, x, order: int):
    """First or second derivative of the shape function; right-hand value at knots.

    The step layer is piecewise constant, so only the polynomial layer
    contributes.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    fb = store.layout[k]
    piece, t = locate(fb, xv, fine_code(fb, xv))
    val = horner(store.params[i][k], piece, t, order)
    return float(val[0]) if scalar else val


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
    coordinates by `shift`.
    """
    fb = store.layout[k]
    sp = store.params[i][k]
    if d == 0:
        j = int(np.searchsorted(fb.fine_edges, threshold))
        if j >= fb.fine_edges.size or fb.fine_edges[j] != threshold:
            raise ValueError(f"threshold {threshold!r} is not a fine-grid edge")
        sp.step_values[: j + 1] += learning_rate * gamma_left
        sp.step_values[j + 1 :] += learning_rate * gamma_right
        return
    j = int(np.searchsorted(fb.coarse_edges, threshold))
    if j >= fb.coarse_edges.size or fb.coarse_edges[j] != threshold:
        raise ValueError(f"threshold {threshold!r} is not a coarse-grid edge")
    lower = fb.coarse_lower_edges
    for pieces, gamma in ((slice(0, j + 1), gamma_left), (slice(j + 1, None), gamma_right)):
        if gamma == 0.0:
            continue
        delta = lower[pieces] - threshold
        sp.poly_coeffs[pieces, : d + 1] += shift(delta, d, learning_rate * gamma).T


def accumulate_global(
    store: ParameterStore, i: int, k: int, d: int, gamma: float, learning_rate: float
) -> None:
    """Fold a global monomial gamma*(x - x_ref)^d into the stored form.

    x_ref is the observed feature minimum. d = 0 adds a constant to every fine
    step value; d >= 1 expands into every coarse piece.
    """
    fb = store.layout[k]
    sp = store.params[i][k]
    if d == 0:
        sp.step_values += learning_rate * gamma
        return
    delta = fb.coarse_lower_edges - fb.x_min
    sp.poly_coeffs[:, : d + 1] += shift(delta, d, learning_rate * gamma).T


def predict(store: ParameterStore, X: np.ndarray, *, return_codes: bool = False):
    """Raw scores F, shape (N, J). Masked (output, feature) pairs are skipped
    outright, so their columns cannot influence the output even in principle.
    A NaN or infinite value in X raises DataError.

    With return_codes, returns (F, codes): codes[k] holds feature k's fine
    codes in the smallest unsigned type that fits its fine bins, or None
    where every output masks the feature."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(store.feature_names):
        raise DataError(
            f"expected feature matrix with {len(store.feature_names)} columns, "
            f"got shape {X.shape}"
        )
    refuse_nonfinite(X, store.feature_names)
    n = X.shape[0]
    F = np.tile(store.intercepts, (n, 1))
    mask = store.constraints.allow_mask
    codes = [None] * X.shape[1]
    for k in range(X.shape[1]):
        if not mask[:, k].any():
            continue
        fb, x = store.layout[k], X[:, k]
        fcode = fine_code(fb, x)
        piece, t = locate(fb, x, fcode)
        for i in range(store.n_outputs):
            if mask[i, k]:
                F[:, i] += horner(store.params[i][k], piece, t, fcode=fcode)
        if return_codes:
            codes[k] = fcode.astype(np.min_scalar_type(fb.n_fine_bins - 1))
    return (F, codes) if return_codes else F


def knot_gaps(store: ParameterStore, i: int, k: int, order: int = 0) -> np.ndarray:
    """One-sided analytic gap (right minus left) at every fine-grid knot.

    order 0 includes the step layer; orders 1 and 2 are polynomial-only. Used
    by the smoothness tests: a C^S fit must show zero gaps up to order S.
    """
    fb = store.layout[k]
    sp = store.params[i][k]
    edges = fb.fine_edges
    if edges.size == 0:
        return np.empty(0)
    # piece at/above each knot vs the piece holding points just below it
    p_right, t_right = locate(fb, edges, fine_code(fb, edges))
    p_left = np.where(np.isin(edges, fb.coarse_edges), p_right - 1, p_right)
    t_left = edges - fb.coarse_lower_edges[p_left]
    gaps = horner(sp, p_right, t_right, order) - horner(sp, p_left, t_left, order)
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


def _document(store: ParameterStore) -> dict:
    """The model file's JSON document; numpy values are left for `_plain`."""
    feats = []
    for name, fb, fc in zip(store.feature_names, store.layout.features, store.constraints.features):
        feats.append(
            {
                "name": name,
                "kind": fb.kind,
                "fine_edges": fb.fine_edges,
                "coarse_edges": fb.coarse_edges,
                "x_min": fb.x_min,
                "x_max": fb.x_max,
                "S": fc.smoothness,
                "D": fc.max_degree,
                "monotone": fc.monotone,
                "curvature": fc.curvature,
            }
        )
    params = [
        [
            {"step_values": sp.step_values, "poly_coeffs": sp.poly_coeffs}
            for sp in row
        ]
        for row in store.params
    ]
    if store.has_uncertainty:
        se_acc = [
            [
                {
                    "fine": store.se_fine[i][k],
                    "coarse": store.se_coarse[i][k],
                }
                for k in range(len(store.feature_names))
            ]
            for i in range(store.n_outputs)
        ]
    else:
        se_acc = None
    return {
        "format_version": FORMAT_VERSION,
        "task": store.task,
        "outputs": store.n_outputs,
        "target_column": store.target_name,
        "features": feats,
        "allow_mask": store.constraints.allow_mask.astype(bool),
        "intercepts": store.intercepts,
        "params": params,
        "se_accumulators": se_acc,
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
    return store


def _from_document(doc: dict) -> ParameterStore:
    """The store a model document describes, before validation."""
    feats = doc["features"]
    layout = BinLayout(
        features=[
            FeatureBins(
                fine_edges=np.asarray(f["fine_edges"], dtype=float),
                coarse_edges=np.asarray(f["coarse_edges"], dtype=float),
                x_min=float(f["x_min"]),
                x_max=float(f["x_max"]),
                kind=f["kind"],
            )
            for f in feats
        ]
    )
    constraints = ConstraintSpec(
        features=[
            FeatureConstraint(
                smoothness=int(f["S"]),
                max_degree=int(f["D"]),
                monotone=int(f["monotone"]),
                curvature=int(f["curvature"]),
            )
            for f in feats
        ],
        allow_mask=np.asarray(doc["allow_mask"], dtype=bool),
    )
    params = [
        [
            ShapeParams(
                step_values=np.asarray(sp["step_values"], dtype=float),
                poly_coeffs=np.asarray(sp["poly_coeffs"], dtype=float),
            )
            for sp in row
        ]
        for row in doc["params"]
    ]
    store = ParameterStore(
        layout=layout,
        task=doc["task"],
        n_outputs=int(doc["outputs"]),
        feature_names=[f["name"] for f in feats],
        constraints=constraints,
        intercepts=np.asarray(doc["intercepts"], dtype=float),
        params=params,
        target_name=doc.get("target_column", "target"),
    )
    se_acc = doc.get("se_accumulators")
    if se_acc is not None:
        store.se_fine = [
            [np.asarray(e["fine"], dtype=float) if e["fine"] is not None else None for e in row]
            for row in se_acc
        ]
        store.se_coarse = [
            [
                np.asarray(e["coarse"], dtype=float) if e["coarse"] is not None else None
                for e in row
            ]
            for row in se_acc
        ]
    return store
