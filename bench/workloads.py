"""Seeded workload generators for the polygam benchmark.

Every generator is a pure function of the seed and returns plain numpy
arrays; polygam only ever sees the arrays. The benchmark builds each
workload's `Dataset` objects and constraint spec from a `Workload` after the
package is imported.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOUSING_GENERATOR = os.path.join(ROOT, "tests", "data", "make_housing.py")
HOUSING_DRAWS = 10


@dataclass
class Workload:
    name: str
    task: str
    feature_names: list[str]
    n_outputs: int
    iterations: int  # fixed fit budget; early stopping is off
    X: np.ndarray
    y: np.ndarray
    # (train, valid, test) row indices, 70/10/20; test sets are disjoint
    folds: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    X_score: np.ndarray  # rows for the predict-throughput phase
    # ConstraintSpec.default keyword arguments, by feature name where keyed
    smoothness: int = -1
    max_degree: int = 3
    monotone: dict[str, int] = field(default_factory=dict)
    outputs_for: dict[str, list[int]] = field(default_factory=dict)


def folds(n: int, seed: int, k: int):
    """k seeded 70/10/20 splits whose test sets are disjoint.

    Rows are shuffled into ten equal chunks; fold j tests on chunks 2j and
    2j+1, validates on chunk 2j+2 (mod 10) and trains on the other seven.
    """
    if not 1 <= k <= 5:
        raise ValueError(f"1..5 folds of 20% test rows fit in the data, got {k}")
    chunks = np.array_split(np.random.default_rng([seed, 7]).permutation(n), 10)
    out = []
    for j in range(k):
        test = [2 * j, 2 * j + 1]
        valid = [(2 * j + 2) % 10]
        train = [c for c in range(10) if c not in test + valid]
        out.append(tuple(
            np.sort(np.concatenate([chunks[c] for c in part])) for part in (train, valid, test)
        ))
    return out


def _softmax(V: np.ndarray) -> np.ndarray:
    z = V - V.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def housing_arrays(seed: int):
    """The committed housing fixture's generator; seed 1913 reproduces the CSV."""
    spec = importlib.util.spec_from_file_location("make_housing", HOUSING_GENERATOR)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mat = mod.generate(seed)
    return mat[:, :-1], mat[:, -1], list(mod.COLUMNS[:-1])


def choice_arrays(seed: int):
    """Four alternatives; each utility decreases in its own cost feature.

    Same draws as the acceptance suite's `choice_dataset(seed)`, rewritten
    here so the benchmark imports nothing from the test modules.
    """
    rng = np.random.default_rng(seed)
    n = 20000
    cost = rng.uniform(0.0, 2.0, size=(n, 4))
    context = rng.uniform(-1.0, 1.0, size=n)
    beta = (-2.2, -1.6, -2.8, -1.2)
    bias = (0.4, 0.0, 0.8, -0.2)
    ctx = (0.5, -0.5, 0.3, 0.0)
    V = np.column_stack([bias[i] + beta[i] * cost[:, i] + ctx[i] * context for i in range(4)])
    probs = _softmax(V)
    y = (rng.uniform(size=n)[:, None] < probs.cumsum(axis=1)).argmax(axis=1)
    X = np.column_stack([cost, context])
    names = ["cost_0", "cost_1", "cost_2", "cost_3", "context"]
    return X, y.astype(np.int64), names


def binary_large_arrays(seed: int, n: int = 200_000):
    """Additive logistic response over eight numeric features of mixed shape:
    smooth, skewed, heavy-tailed, and one low-cardinality integer column, so
    binning sees both full and collapsed grids."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.uniform(-2.0, 2.0, n),
            rng.normal(0.0, 1.0, n),
            rng.lognormal(0.0, 0.8, n),
            rng.exponential(1.5, n),
            rng.uniform(0.0, 1.0, n),
            rng.standard_t(4, n),
            rng.integers(0, 12, n).astype(float),
            rng.beta(2.0, 5.0, n),
        ]
    )
    logit = (
        -0.3
        + np.sin(1.5 * X[:, 0])
        + 0.6 * X[:, 1]
        - 0.8 * np.log(X[:, 2])
        - 0.4 * np.sqrt(X[:, 3])
        + 1.2 * (X[:, 4] - 0.5) ** 2
        + 0.3 * np.tanh(X[:, 5])
        + 0.08 * (X[:, 6] - 6.0)
        - 2.0 * X[:, 7]
    )
    p = 1.0 / (1.0 + np.exp(-logit))
    y = (rng.uniform(size=n) < p).astype(np.int64)
    return X, y, [f"x{j}" for j in range(X.shape[1])]


def _workload(name, task, n_outputs, iterations, arrays, seed, n_folds, score_rows=None,
              **spec):
    X, y, names = arrays
    return Workload(
        name=name,
        task=task,
        feature_names=names,
        n_outputs=n_outputs,
        iterations=iterations,
        X=np.ascontiguousarray(X),
        y=y,
        folds=folds(X.shape[0], seed, n_folds),
        X_score=np.ascontiguousarray(X if score_rows is None else score_rows),
        **spec,
    )


# Small data gets several folds: held-out loss on 101 rows, or per-iteration
# work on one split, varies too much from seed to seed to compare runs.


def housing(seed: int) -> Workload:
    # Each fold is a 70/10/20 split of its own 506-row draw. Over five folds
    # of one draw, the held-out loss (mean over folds) moved by 0.14 (IQR over
    # median) from seed to seed; over ten draws the median over folds moved
    # by 0.06-0.07 (see README.md).
    draws = [housing_arrays(HOUSING_DRAWS * seed + j) for j in range(HOUSING_DRAWS)]
    X = np.concatenate([d[0] for d in draws])
    y = np.concatenate([d[1] for d in draws])
    w = _workload("housing", "regression", 1, 300, (X, y, draws[0][2]), seed, 1,
                  # a draw predicts in well under a millisecond; tile the
                  # draws so the throughput phase times row work rather
                  # than call overhead
                  score_rows=np.tile(X, (4, 1)))
    n = draws[0][0].shape[0]
    w.folds = [
        tuple(j * n + part for part in folds(n, HOUSING_DRAWS * seed + j, 1)[0])
        for j in range(HOUSING_DRAWS)
    ]
    return w


def choice(seed: int) -> Workload:
    return _workload("choice", "multiclass", 4, 60, choice_arrays(seed), seed, 5)


def choice_monotone(seed: int) -> Workload:
    costs = [f"cost_{i}" for i in range(4)]
    return _workload(
        "choice_monotone", "multiclass", 4, 60, choice_arrays(seed), seed, 5,
        smoothness=1, max_degree=2,
        monotone={c: -1 for c in costs},
        outputs_for={c: [i] for i, c in enumerate(costs)},
    )


def binary_large(seed: int) -> Workload:
    return _workload("binary_large", "binary", 1, 20, binary_large_arrays(seed), seed, 1)


WORKLOADS = {
    "housing": housing,
    "choice": choice,
    "choice_monotone": choice_monotone,
    "binary_large": binary_large,
}
