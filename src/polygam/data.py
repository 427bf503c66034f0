"""Dataset ingestion and quantile binning.

Features are histogrammed on two nested quantile grids: a fine grid used by
degree-0 (step) terms and a coarse grid, whose edges are a subsample of the
fine edges, used by degree >= 1 polynomial terms. Sharing knots between the
two grids keeps every piece boundary of the final model on the fine grid.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

TASKS = ("regression", "binary", "multiclass")

NUMERIC = "numeric"
CATEGORICAL = "categorical"


def feature_problems(names: list[str], kinds: list[str]) -> list[str]:
    """Every problem of a feature list: a name that is not a string or is
    used twice (an update and the model file name their feature, and
    `load_feature_matrix` looks each name up in the CSV header), and kinds
    that are not one known kind per feature."""
    errs = [f"feature names must be strings, got {n!r}" for n in names if not isinstance(n, str)]
    if not errs and len(set(names)) < len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        errs.append(f"feature names must be unique; repeated: {repeated}")
    if len(kinds) != len(names) or not set(kinds) <= {NUMERIC, CATEGORICAL}:
        errs.append(f"kinds must give {NUMERIC!r} or {CATEGORICAL!r} for each of the "
                    f"{len(names)} features, got {kinds}")
    return errs


def output_problems(task: str, n_outputs) -> list[str]:
    """The problem of an output count that a known task cannot have: it
    needs exactly 1 for regression and binary, at least 2 for multiclass."""
    multi = task == "multiclass"
    if isinstance(n_outputs, numbers.Integral) and (n_outputs >= 2 if multi else n_outputs == 1):
        return []
    return [f"{task} needs {'at least 2' if multi else 'exactly 1'} outputs, "
            f"got n_outputs = {n_outputs}"]


def refuse_nonfinite(X: np.ndarray, names: list[str]) -> None:
    """Raise DataError naming the first column and row of X holding NaN or inf."""
    finite = np.isfinite(X)
    if not finite.all():
        bad = ~finite
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"feature {names[col]!r} holds a non-finite value at row {row} "
            f"({int(bad.sum())} non-finite cells in all)"
        )


@dataclass
class Dataset:
    """Feature matrix plus target, with per-column kind tags.

    X is float64, C-contiguous, shape (N, K); categorical columns hold numeric
    level codes. y is float64 for regression and int64 class indices for
    binary/multiclass. n_outputs is 1 for regression and binary, J for
    multiclass.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    kinds: list[str]
    task: str
    n_outputs: int
    target_name: str = "target"

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def validate(self) -> None:
        """Raise DataError when the task is unknown, n_outputs is not 1 for
        regression and binary or is below 2 for multiclass, X is not (rows,
        features), kinds does not give a known kind per feature, y does not
        give one target per row, a feature name is not a string or two
        features share a name, X holds a NaN or
        infinite value, or a class label is not a whole number the task can
        hold: 0 or 1 for binary, 0..n_outputs-1 for multiclass."""
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if errs := output_problems(self.task, self.n_outputs):
            raise DataError(errs[0])
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise DataError(
                f"X has shape {self.X.shape}, expected (rows, {len(self.feature_names)} features)"
            )
        if errs := feature_problems(self.feature_names, self.kinds):
            raise DataError("; ".join(errs))
        if self.y.shape != (self.X.shape[0],):
            raise DataError(f"y has shape {self.y.shape}, expected ({self.X.shape[0]},)")
        refuse_nonfinite(self.X, self.feature_names)
        if self.task != "regression":
            top = 1 if self.task == "binary" else self.n_outputs - 1
            y = self.y.astype(float)
            bad = np.flatnonzero(~((y >= 0.0) & (y <= top) & (y == np.floor(y))))
            if bad.size:
                raise DataError(
                    f"{self.task} labels must be whole numbers in 0..{top}; row {bad[0]} "
                    f"holds {self.y[bad[0]].item()!r} ({bad.size} bad labels in all)"
                )

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            X=np.ascontiguousarray(self.X[idx]),
            y=self.y[idx],
            feature_names=self.feature_names,
            kinds=self.kinds,
            task=self.task,
            n_outputs=self.n_outputs,
            target_name=self.target_name,
        )


@dataclass
class SplitScheme:
    """Bin-count budget for the two grids."""

    n_bins_degree0: int = 256
    n_bins_higher: int = 20

    def problems(self) -> list[str]:
        """Every bin count that is not an integer >= 1."""
        return _bin_count_problems(**vars(self))


def _bin_count_problems(**counts) -> list[str]:
    """Every one of these named bin counts that is not an integer >= 1."""
    return [f"{name} must be an integer >= 1, got {value}" for name, value in counts.items()
            if not (isinstance(value, numbers.Integral) and value >= 1)]


def _cell(x, origin: float, scale: float, cells: int, out: np.ndarray) -> np.ndarray:
    """`FineTable`'s cell of each value, as a float in [0, cells - 1], in out.
    Values and edges go through this one function, so they map alike."""
    with np.errstate(over="ignore"):
        np.subtract(x, origin, out=out)
        np.multiply(out, scale, out=out)
    np.fmin(out, cells - 1, out=out)  # fmin sends NaN to the last cell
    return np.fmax(out, 0.0, out=out)


class FineTable:
    """Exact two-level lookup of fine codes: the count of edges <= x, as
    ``np.searchsorted(edges, x, side="right")`` gives it, for every float.

    There are about four cells per edge over [first edge, last edge]. A
    value falls in cell int(clip((x - origin) * scale, 0, cells - 1)), with
    NaN in the last cell. This map is monotone, so an edge in an earlier
    cell than x is below x and one in a later cell is above it. The table
    applies the same map to the edges: ``top[c]`` is the count of edges in
    cells before c, plus the search window 2**steps - 1, which holds at
    least every edge of cell c. A branchless search of ``steps`` halvings
    walks down from ``top[c]`` while x is below the edge under it, so edges
    of later cells and the +inf padding stop it exactly where searchsorted
    stops. Comparing as ``not (x < e)`` and clamping to the edge count sends
    NaN and +inf to the last bin, as searchsorted does. Exact by
    construction, not by tolerance.
    """

    # a plain class: a frozen dataclass costs 0.8 ms more per import
    __slots__ = ("origin", "scale", "steps", "n_edges", "top", "padded")

    def __init__(self, edges: np.ndarray):
        edges = np.asarray(edges, dtype=float)
        n = edges.size
        cells = max(4 * n, 1)
        self.origin = float(edges[0]) if n else 0.0
        with np.errstate(divide="ignore", over="ignore"):
            scale = float(cells / (edges[-1] - edges[0])) if n else 1.0
        # one edge, or a span that is 0, subnormal or overflows: a zero scale
        # would send -inf to NaN, and any positive finite one is exact
        self.scale = scale if 0.0 < scale < math.inf else 1.0
        cell = _cell(edges, self.origin, self.scale, cells, np.empty(n)).astype(np.intp)
        per_cell = np.bincount(cell, minlength=cells)
        self.steps = int(per_cell.max()).bit_length()
        self.n_edges = n
        window = (1 << self.steps) - 1
        self.top = np.cumsum(per_cell) - per_cell + window  # one entry per cell
        # the edges, after 2**(steps-1) slots the search never reads (so each
        # halving reads a view without an index array) and before 2**steps - 1
        # slots of +inf
        front = np.full((window + 1) // 2, np.nan)
        self.padded = np.concatenate((front, edges, np.full(window, np.inf)))
        self.top.flags.writeable = False
        self.padded.flags.writeable = False

    def codes(self, x: np.ndarray) -> np.ndarray:
        """Fine code of each value (intp). Holds three arrays of x's size."""
        x = np.asarray(x, dtype=float)
        v = _cell(x, self.origin, self.scale, self.top.size, np.empty(x.shape))
        c = v.astype(np.intp)
        hi = self.top.take(c)
        front = (1 << self.steps) // 2
        for k in reversed(range(self.steps)):
            step = 1 << k
            # v = edges[hi - step]; c = step where x is below it, else 0
            self.padded[front - step :].take(hi, out=v, mode="clip")
            np.less(x, v, out=c)
            if step > 1:
                c *= step
            hi -= c
        return np.minimum(hi, self.n_edges, out=hi)


@dataclass
class FeatureBins:
    """Interior edges for one feature on both grids, plus observed range.

    coarse_edges is always a subset of fine_edges. The lower edge of the first
    coarse piece is the observed minimum (also the reference point x_ref for
    global polynomial terms).
    """

    fine_edges: np.ndarray
    coarse_edges: np.ndarray
    x_min: float
    x_max: float
    kind: str = NUMERIC

    @property
    def n_fine_bins(self) -> int:
        return self.fine_edges.size + 1

    @property
    def n_coarse_bins(self) -> int:
        return self.coarse_edges.size + 1

    @functools.cached_property
    def coarse_lower_edges(self) -> np.ndarray:
        """Lower edge of each coarse piece; piece 0 starts at the observed min.
        Built once (the bins are never modified after construction) and
        read-only, so no caller can change the shared array."""
        lower = np.concatenate(([self.x_min], self.coarse_edges))
        lower.flags.writeable = False
        return lower

    @functools.cached_property
    def piece_of_fine(self) -> np.ndarray:
        """Coarse piece of each fine bin, read-only. Coarse edges are fine
        edges, so no piece boundary falls inside a fine bin and the piece of
        a fine bin is the piece of its lower edge; bins whose coarse edges
        are not all fine edges raise DataError."""
        # the fine edge at or above each coarse edge (NaN past the last) must equal it
        at = np.searchsorted(self.fine_edges, self.coarse_edges)
        if not (np.append(self.fine_edges, np.nan)[at] == self.coarse_edges).all():
            raise DataError("coarse edges are not on the fine grid")
        above = np.searchsorted(self.coarse_edges, self.fine_edges, side="right")
        table = np.concatenate(([0], above))
        table.flags.writeable = False
        return table

    @functools.cached_property
    def fine_table(self) -> FineTable:
        """Cell table for bulk fine-code lookups (`model.fine_code`), built
        once from the fine edges; never serialized."""
        return FineTable(self.fine_edges)


@dataclass
class BinLayout:
    features: list[FeatureBins] = field(default_factory=list)

    def __getitem__(self, k: int) -> FeatureBins:
        return self.features[k]

    def __len__(self) -> int:
        return len(self.features)


def build_bins(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile edges: midpoints between the two samples straddling each i/n_bins rank.

    Duplicate quantiles collapse, so fewer bins than requested may result.
    Every interior edge lies strictly between the observed min and max and
    every resulting bin contains at least one sample. An n_bins that is not
    an integer >= 1 raises ConfigError.
    """
    if errs := _bin_count_problems(n_bins=n_bins):
        raise ConfigError(errs[0])
    v = np.sort(np.asarray(values, dtype=float))
    # the ranks i * n // n_bins, each in 1..n-1; from n_bins = n on they are
    # every rank there, so at most n of them are formed
    k = min(n_bins, v.size)
    idx = np.arange(1, k) * v.size // k
    lo, hi = v[idx - 1], v[idx]
    return np.unique(0.5 * (lo + hi)[hi > lo])


def categorical_edges(values: np.ndarray) -> np.ndarray:
    """One bin per distinct level: edges at midpoints between consecutive levels."""
    u = np.unique(np.asarray(values, dtype=float))
    if u.size < 2:
        return np.empty(0, dtype=float)
    return 0.5 * (u[1:] + u[:-1])


def nested_coarse_edges(fine_edges: np.ndarray, n_bins_higher: int) -> np.ndarray:
    """Subsample fine edges so coarse knots sit on the fine grid.

    Stride is computed from the realized fine bin count, so a collapsed fine
    grid still yields as many coarse bins as the budget allows; at the full
    fine budget this picks every ceil(B0/B1)-th edge.
    """
    n_fine_bins = fine_edges.size + 1
    if n_fine_bins <= n_bins_higher:
        return fine_edges.copy()
    stride = math.ceil(n_fine_bins / n_bins_higher)
    return fine_edges[stride - 1 :: stride].copy()


def build_bin_layout(dataset: Dataset, scheme: SplitScheme | None = None) -> BinLayout:
    """Both grids of every feature; a bin count that is not an integer >= 1
    raises ConfigError."""
    scheme = scheme or SplitScheme()
    errs = scheme.problems()
    if errs:
        raise ConfigError("; ".join(errs))
    feats = []
    for k in range(dataset.n_features):
        col = dataset.X[:, k]
        if dataset.kinds[k] == CATEGORICAL:
            fine = categorical_edges(col)
            coarse = fine.copy()
        else:
            fine = build_bins(col, scheme.n_bins_degree0)
            coarse = nested_coarse_edges(fine, scheme.n_bins_higher)
        feats.append(
            FeatureBins(
                fine_edges=fine,
                coarse_edges=coarse,
                x_min=float(col.min()),
                x_max=float(col.max()),
                kind=dataset.kinds[k],
            )
        )
    return BinLayout(features=feats)


def fraction_problems(fractions) -> list[str]:
    """Every way three split fractions fail: each must be a finite number in
    [0, 1], and together they must sum to 1."""
    if len(fractions) != 3:
        return [f"split fractions must be three (train, valid, test), got {fractions!r}"]
    # written so that NaN fails it
    if not all(isinstance(f, numbers.Real) and 0.0 <= f <= 1.0 for f in fractions):
        return [f"split fractions must each lie in [0, 1], got {fractions!r}"]
    total = sum(fractions)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        return [f"split fractions must sum to 1, got {total}"]
    return []


def split_indices(
    n: int,
    fractions: tuple[float, float, float],
    seed: int,
    labels: np.ndarray | None = None,
):
    """Seeded shuffle split into (train, valid, test) index arrays.

    With labels given, the split is stratified per class; without, all rows
    are one class. Indices within each part are sorted so the result does
    not depend on class enumeration order. An n or seed that is not an
    integer >= 0, labels that are not one per row, or `fraction_problems`
    raise ConfigError.
    """
    for what, v in (("n", n), ("seed", seed)):
        if not (isinstance(v, numbers.Integral) and v >= 0):
            raise ConfigError(f"split {what} must be an integer >= 0, got {v!r}")
    problems = fraction_problems(fractions)
    if problems:
        raise ConfigError(problems[0])
    labels = np.zeros(n) if labels is None else np.asarray(labels)
    if labels.shape != (n,):
        raise ConfigError(f"split labels must hold one value per row ({n}), got shape "
                          f"{labels.shape}")
    f_train, f_valid, _ = fractions
    rng = np.random.default_rng(seed)
    parts = ([np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, np.intp)])
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(idx.size * f_train))
        n_valid = int(round(idx.size * f_valid))
        for part, piece in zip(parts, np.split(idx, [n_train, n_train + n_valid])):
            part.append(piece)
    return tuple(np.sort(np.concatenate(p)).astype(np.intp) for p in parts)


def _parse_matrix(path, require_rows: bool):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        header = [c.strip() for c in header]
        rows = []
        for r, rec in enumerate(reader, start=1):
            if not rec or (len(rec) == 1 and rec[0].strip() == ""):
                continue
            if len(rec) != len(header):
                raise DataError(f"{path}: row {r}: expected {len(header)} cells, got {len(rec)}")
            vals = np.empty(len(header))
            for c, cell in enumerate(rec):
                try:
                    vals[c] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {r}, column '{header[c]}': cannot parse {cell!r}"
                    ) from None
                if not np.isfinite(vals[c]):
                    raise DataError(
                        f"{path}: row {r}, column '{header[c]}': non-finite value {cell!r}"
                    )
            rows.append(vals)
    if require_rows and not rows:
        raise DataError(f"{path}: no data rows")
    mat = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, mat


def load_csv(
    path,
    target: str,
    task: str,
    categorical: tuple[str, ...] = (),
) -> Dataset:
    """Load a CSV with one target column; all cells must parse as finite numbers.

    Feature order follows the header, target excluded. A feature is tagged
    categorical when flagged explicitly or when it takes at most two distinct
    values.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}, expected one of {TASKS}")
    header, mat = _parse_matrix(path, require_rows=True)
    if target not in header:
        raise DataError(f"{path}: target column {target!r} not found in header")
    unknown = set(categorical) - set(header)
    if unknown:
        raise DataError(f"{path}: categorical flag for unknown column(s) {sorted(unknown)}")
    t_col = header.index(target)
    y_raw = mat[:, t_col]
    feature_names = [c for c in header if c != target]
    cols = [i for i, c in enumerate(header) if c != target]
    X = np.ascontiguousarray(mat[:, cols])

    if task == "regression":
        y = y_raw.astype(float)
        n_outputs = 1
    else:
        y_int = y_raw.astype(np.int64)
        if not np.array_equal(y_int.astype(float), y_raw):
            raise DataError(f"{path}: target {target!r} must hold integer class labels")
        if y_int.min() < 0:
            raise DataError(f"{path}: class labels must be >= 0")
        if task == "binary":
            if y_int.max() > 1:
                raise DataError(f"{path}: binary target must be in {{0,1}}")
            n_outputs = 1
        else:
            n_classes = int(y_int.max()) + 1
            present = np.unique(y_int)
            if n_classes < 2 or present.size != n_classes:
                missing = sorted(set(range(n_classes)) - set(present.tolist()))
                raise DataError(
                    f"{path}: multiclass target must cover classes 0..{n_classes - 1}; "
                    f"missing {missing}"
                )
            n_outputs = n_classes
        y = y_int

    kinds = []
    for j, name in enumerate(feature_names):
        if name in categorical or np.unique(X[:, j]).size <= 2:
            kinds.append(CATEGORICAL)
        else:
            kinds.append(NUMERIC)
    return Dataset(
        X=X,
        y=y,
        feature_names=feature_names,
        kinds=kinds,
        task=task,
        n_outputs=n_outputs,
        target_name=target,
    )


def load_feature_matrix(path, feature_names: list[str], ignore: tuple[str, ...] = ()):
    """Load prediction inputs: every trained feature must be present, unknown
    columns (other than the ignorable ones, e.g. the training target) are an
    error, and zero data rows are allowed."""
    header, mat = _parse_matrix(path, require_rows=False)
    missing = [c for c in feature_names if c not in header]
    if missing:
        raise DataError(f"{path}: missing feature column(s) {missing}")
    extra = [c for c in header if c not in feature_names and c not in ignore]
    if extra:
        raise DataError(f"{path}: unknown column(s) {extra}")
    cols = [header.index(c) for c in feature_names]
    return np.ascontiguousarray(mat[:, cols])
