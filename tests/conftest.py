"""Shared builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from polygam.data import BinLayout, Dataset, FeatureBins, SplitScheme, build_bin_layout
from polygam.model import ConstraintSpec, FeatureConstraint, zero_init

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"

# Property tests draw the same examples on every run, keep no example
# database on disk, and carry no per-example deadline (timing varies with
# host load, which would turn a slow example into a spurious failure).
settings.register_profile(
    "polygam", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("polygam")


def make_dataset(X, y, task="regression", names=None, kinds=None, target="target"):
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if names is None:
        names = [f"x{j}" for j in range(X.shape[1])]
    if kinds is None:
        kinds = ["numeric"] * X.shape[1]
    y = np.asarray(y)
    if task == "regression":
        y = y.astype(float)
        n_outputs = 1
    else:
        y = y.astype(np.int64)
        n_outputs = 1 if task == "binary" else int(y.max()) + 1
    return Dataset(
        X=X,
        y=y,
        feature_names=list(names),
        kinds=list(kinds),
        task=task,
        n_outputs=n_outputs,
        target_name=target,
    )


def single_feature_store(
    fine_edges,
    coarse_edges,
    x_min,
    x_max,
    n_outputs=1,
    task="regression",
    constraint=None,
):
    """Hand-built one-feature model with explicit grids, for unit tests that
    need exact control over bin placement."""
    fb = FeatureBins(
        fine_edges=np.asarray(fine_edges, dtype=float),
        coarse_edges=np.asarray(coarse_edges, dtype=float),
        x_min=float(x_min),
        x_max=float(x_max),
    )
    layout = BinLayout(features=[fb])
    fc = constraint if constraint is not None else FeatureConstraint()
    spec = ConstraintSpec(
        features=[fc], allow_mask=np.ones((n_outputs, 1), dtype=bool)
    )
    return zero_init(layout, task, n_outputs, ["x0"], spec)


def scan_matrix(g, h):
    """The g/h matrix a feature scan reads: (2J, n + 1), g then h by
    output, with a zero last column. g and h are (n,) or (n, J)."""
    gh = np.vstack((np.atleast_2d(np.asarray(g, dtype=float).T),
                    np.atleast_2d(np.asarray(h, dtype=float).T)))
    return np.pad(gh, ((0, 0), (0, 1)))


def scanned(wk, g, h):
    """One output's side sums from a fresh scan: (4, fine thresholds +
    table rows), rows (sgl, sgr, shl, shr)."""
    wk.scan(scan_matrix(g, h), h_static=False)
    return wk.sums[0]


def layout_for(dataset, n_bins_degree0=256, n_bins_higher=20):
    scheme = SplitScheme(n_bins_degree0=n_bins_degree0, n_bins_higher=n_bins_higher)
    return build_bin_layout(dataset, scheme)


@pytest.fixture(scope="session")
def housing_csv():
    return f"{DATA_DIR}/housing.csv"
