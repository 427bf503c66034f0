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
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

TASKS = ("regression", "binary", "multiclass")

NUMERIC = "numeric"
CATEGORICAL = "categorical"


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
        """Raise DataError when X is not (rows, features) with one target
        per row, holds a NaN or infinite value, or a class label is not a
        whole number the task can hold: 0 or 1 for binary, 0..n_outputs-1
        for multiclass."""
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise DataError(
                f"X has shape {self.X.shape}, expected (rows, {len(self.feature_names)} features)"
            )
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
    every resulting bin contains at least one sample.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    edges = []
    for i in range(1, n_bins):
        idx = (i * n) // n_bins
        if idx <= 0 or idx >= n:
            continue
        lo, hi = v[idx - 1], v[idx]
        if hi > lo:
            edges.append(0.5 * (lo + hi))
    return np.unique(np.asarray(edges, dtype=float))


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
    scheme = scheme or SplitScheme()
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


def split_indices(
    n: int,
    fractions: tuple[float, float, float],
    seed: int,
    labels: np.ndarray | None = None,
):
    """Seeded shuffle split into (train, valid, test) index arrays.

    With labels given, the split is stratified per class; indices within each
    part are sorted so the result does not depend on class enumeration order.
    """
    f_train, f_valid, f_test = fractions
    total = f_train + f_valid + f_test
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"split fractions must sum to 1, got {total}")
    rng = np.random.default_rng(seed)
    if labels is None:
        perm = rng.permutation(n)
        n_train = int(round(n * f_train))
        n_valid = int(round(n * f_valid))
        parts = (perm[:n_train], perm[n_train : n_train + n_valid], perm[n_train + n_valid :])
    else:
        labels = np.asarray(labels)
        tr, va, te = [], [], []
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            idx = idx[rng.permutation(idx.size)]
            m = idx.size
            n_train = int(round(m * f_train))
            n_valid = int(round(m * f_valid))
            tr.append(idx[:n_train])
            va.append(idx[n_train : n_train + n_valid])
            te.append(idx[n_train + n_valid :])
        parts = (np.concatenate(tr), np.concatenate(va), np.concatenate(te))
    return tuple(np.sort(p).astype(np.intp) for p in parts)


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
