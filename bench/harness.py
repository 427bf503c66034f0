"""Phases, checks and metrics of one benchmark run (entry point: run.py).

A run is one process with one closed-loop caller, made of rounds until
--seconds have passed. A round of the untraced run times, in order:

* setup: a fresh `import polygam` and `build_bin_layout` on the training
  rows (numpy is already loaded; data generation is not timed);
* fit: `train()` at the workload's fixed iteration budget, early stopping
  off, explicit validation set; rounds cycle through the workload's folds;
* score: `predict` on the score matrix and on single rows,
  `attach_se_accumulators` on the training rows, `shape_grid(with_ci=True)`
  for every allowed (output, feature) pair, and a `save_model`/`load_model`
  round trip. Operations shorter than BURST_S repeat within the round.

Rounds spread every operation's samples over the whole run. The host is
shared, and for seconds to minutes at a time everything on it runs up to
1.5x slower, so every timed sample is paced: a fixed reference workload
that polygam does not touch is timed right before and right after it, and
the sample is scaled by REFERENCE_S over the mean of those two times (the
save/load round trip by the reference's JSON piece, see REFERENCE_S). A
paced sample reads as the wall time the operation would take while the
reference takes REFERENCE_S. Each timing metric is the median of its paced
samples; the one-row p99 is the lower quartile of the rounds' p99s.
The detail line gives the count, minimum, lower quartile, median and tail
of every paced sample set, of the same samples' raw wall times, and of the
reference times. A round of the traced run is an untraced fit followed by
a traced fit and score; each per-layer metric is the median over rounds.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from tracer import Tracer, roots, self_times
from workloads import ROOT, Workload

OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_ROUNDS = 3
# operations shorter than this repeat within a round, to gather samples
BURST_S = 0.05
# one-row predict calls per round, so each round's p99 has 20 samples beyond
# it. Host interruptions of a fraction of a millisecond come in bursts that
# lift every p99 of the rounds they hit; the run reports the lower quartile
# of the rounds' p99s, which a slow path in polygam lifts in every round.
ROW_CALLS = 2000
# one-row calls between two reference timings
ROW_BLOCK = 50
# The pacing reference: three fixed pieces of about equal length. A slow
# spell slows polygam's operations unevenly: pure-Python ones (one-row
# predict, shape_grid) up to 1.5x, numpy-bound ones (train on binary_large)
# less, and the save/load round trip, which is JSON work, more. An
# interpreter loop, a numpy sort and a JSON round trip each track one kind.
# The save/load round trip is paced by the JSON piece alone, every other
# operation by the sum of all three: those tracked them best (see
# README.md). All three stay in the cache, so the reference time does not
# depend on what polygam evicted before it. REFERENCE_S and REFERENCE_JSON_S
# are the whole reference's and the JSON piece's times on the baseline
# machine outside slow spells; they only set the scale of the paced metrics.
_rng = np.random.default_rng(0)
REFERENCE_LOOP = 2500
REFERENCE_ROWS = _rng.random(20_000)
REFERENCE_DOC = {f"k{i}": _rng.random(30).tolist() for i in range(5)}
REFERENCE_S = 0.5e-3
REFERENCE_JSON_S = 0.2e-3
# monotone shapes are checked on this many grid points; the trainer enforces
# signs to -1e-10 and the acceptance suite allows -1e-9, as here
GRID_POINTS = 10_000
SLOPE_TOL = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_ms_per_iter": "ms",
    "test_loss": "loss",
    "predict_rows_per_s": "rows/s",
    "predict_row_p50_us": "us",
    "predict_row_p99_us": "us",
    "se_attach_s": "s",
    "shape_grid_ms": "ms",
    "save_load_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "data.build_bin_layout_ms": "ms",
    "losses.derivatives_ms_per_iter": "ms",
    "losses.loss_eval_ms_per_iter": "ms",
    "losses.loss_eval_calls_per_iter": "count",
    "booster.self_ms_per_iter": "ms",
    "booster.scoring_ms_per_iter": "ms",
    "booster.leaf_value_calls_per_iter": "count",
    "booster.candidate_gain_calls_per_iter": "count",
    "model.accumulate_ms_per_iter": "ms",
    "model.accumulate_calls_per_iter": "count",
    "model.store_copy_calls": "count",
    "model.predict_ms": "ms",
    "model.save_ms": "ms",
    "model.load_ms": "ms",
    "model.model_bytes": "bytes",
    "uncertainty.attach_self_ms": "ms",
    "uncertainty.bin_transform_calls": "count",
    "uncertainty.bin_transform_ms": "ms",
    "explain.eval_ms": "ms",
    "uncertainty.shape_ci_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def trace_targets(pg):
    """(owner, attribute, span name) for every public name the traced run
    rebinds. Span names say which layer defines the function."""
    b, u, e, m = pg.booster, pg.uncertainty, pg.explain, pg.model
    return [
        (b, "derivatives", "losses.derivatives"),
        (b, "loss_eval", "losses.loss_eval"),
        (b, "leaf_value", "booster.leaf_value"),
        (b, "candidate_gain", "booster.candidate_gain"),
        (b, "accumulate_update", "model.accumulate_update"),
        (b, "accumulate_global", "model.accumulate_global"),
        (u, "predict", "model.predict"),
        (u, "hessian_diag", "losses.hessian_diag"),
        (u, "bin_transform", "data.bin_transform"),
        (e, "evaluate_shape", "model.evaluate_shape"),
        (e, "evaluate_derivative", "model.evaluate_derivative"),
        (e, "shape_ci", "uncertainty.shape_ci"),
        (e, "predict", "model.predict"),
        (e, "link_apply", "losses.link_apply"),
        (m.ParameterStore, "copy", "model.ParameterStore.copy"),
    ]


class Checks:
    """Outcome of every correctness check; each is one attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok) -> None:
        self.results.append((name, bool(ok)))

    def summary(self) -> dict:
        """{check name: [passed, attempted]}"""
        out: dict[str, list[int]] = {}
        for name, ok in self.results:
            tally = out.setdefault(name, [0, 0])
            tally[0] += ok
            tally[1] += 1
        return out

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.results)


class Fold:
    def __init__(self, pg, w: Workload, split, layout):
        tr, va, te = split
        self.train = make_dataset(pg, w, w.X[tr], w.y[tr])
        self.valid = make_dataset(pg, w, w.X[va], w.y[va])
        self.X_test = np.ascontiguousarray(w.X[te])
        self.y_test = w.y[te]
        self.layout = layout if layout is not None else pg.build_bin_layout(self.train)
        self.sha256 = None  # of the first fit; every repeat must match it
        self.test_loss = None


class Bench:
    """Everything one run needs once setup is done."""

    def __init__(self, pg, w: Workload, layout):
        self.pg, self.w, self.tracer = pg, w, None
        # setup built fold 0's layout; the other folds' are built here, untimed
        self.folds = [
            Fold(pg, w, split, layout if j == 0 else None) for j, split in enumerate(w.folds)
        ]
        overrides = {
            name: pg.FeatureConstraint(
                monotone=sign, smoothness=w.smoothness, max_degree=w.max_degree
            )
            for name, sign in w.monotone.items()
        }
        self.spec = pg.ConstraintSpec.default(
            self.folds[0].train, smoothness=w.smoothness, max_degree=w.max_degree,
            overrides=overrides, outputs_for=w.outputs_for or None,
        )
        self.config = pg.TrainConfig(
            max_iterations=w.iterations, early_stopping_patience=0, validation_fraction=0.0
        )
        self.pairs = [
            (i, k)
            for i in range(w.n_outputs)
            for k in range(len(w.feature_names))
            if self.spec.allow_mask[i, k]
        ]
        X_rows = self.folds[0].X_test
        self.rows = [X_rows[j : j + 1] for j in range(min(ROW_CALLS, X_rows.shape[0]))]
        self.row_cursor = 0
        self.model_path = os.path.join(OUT_DIR, f"model_{w.name}_{os.getpid()}.json")
        self.resave_path = os.path.join(OUT_DIR, f"resave_{w.name}_{os.getpid()}.json")
        self.checks = Checks()

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed(self, name, fn, *args, **kwargs):
        with self.span(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        return out, dt

    # -- operations: each returns (result, seconds) ------------------------

    def fit(self, fold: Fold):
        res, dt = self.timed(
            "booster.train", self.pg.train,
            fold.train, fold.layout, self.spec, self.config, valid=fold.valid,
        )
        c = self.checks
        c("fit.iteration_budget_reached", res.n_iterations == self.w.iterations)
        c("fit.losses_finite", math.isfinite(res.train_loss) and math.isfinite(res.valid_loss))
        sha = model_sha256(self.pg, res.store)
        if fold.sha256 is None:
            fold.sha256 = sha
            fold.test_loss = self.pg.loss_eval(
                self.w.task, fold.y_test, self.pg.predict(res.store, fold.X_test)
            )
            c("score.test_loss_finite", math.isfinite(fold.test_loss))
        else:
            c("fit.repeat_byte_identical", sha == fold.sha256)
        return res, dt

    def predict(self, store):
        return self.timed("model.predict", self.pg.predict, store, self.w.X_score)

    def predict_rows(self, store, calls: int) -> list[float]:
        predict, rows, clock = self.pg.predict, self.rows, time.perf_counter
        times = []
        for _ in range(calls):
            row = rows[self.row_cursor]
            self.row_cursor = (self.row_cursor + 1) % len(rows)
            t0 = clock()
            predict(store, row)
            times.append(clock() - t0)
        return times

    def se_attach(self, store, fold: Fold):
        return self.timed(
            "uncertainty.attach_se_accumulators",
            self.pg.attach_se_accumulators, store, fold.train.X,
        )

    def shape_grids(self, store):
        def all_pairs():
            return [self.pg.shape_grid(store, i, k, with_ci=True) for i, k in self.pairs]

        return self.timed("explain.shape_grid", all_pairs)

    def save_load(self, store):
        with self.span("save_load"):
            t0 = time.perf_counter()
            with self.span("model.save_model"):
                self.pg.save_model(store, self.model_path)
            with self.span("model.load_model"):
                loaded = self.pg.load_model(self.model_path)
            dt = time.perf_counter() - t0
        return loaded, dt

    # -- checks on a fitted model ------------------------------------------

    def check_model(self, store, loaded, fold: Fold) -> None:
        pg, w, c = self.pg, self.w, self.checks
        c("save_load.predict_bit_equal",
          np.array_equal(pg.predict(store, fold.X_test), pg.predict(loaded, fold.X_test)))
        pg.save_model(loaded, self.resave_path)
        c("save_load.resave_byte_identical",
          filecmp.cmp(self.model_path, self.resave_path, shallow=False))
        mask = self.spec.allow_mask
        if not mask.all():
            c("fit.masked_blocks_zero", all(
                not store.params[i][k].step_values.any()
                and not store.params[i][k].poly_coeffs.any()
                for i, k in zip(*np.nonzero(~mask))
            ))
        for name, sign in w.monotone.items():
            k = w.feature_names.index(name)
            fb = store.layout[k]
            grid = np.linspace(fb.x_min, fb.x_max, GRID_POINTS)
            worst = min(
                float((sign * pg.evaluate_derivative(store, i, k, grid, 1)).min())
                for i in range(w.n_outputs)
                if mask[i, k]
            )
            c(f"fit.monotone_{name}", worst >= -SLOPE_TOL)

    def cleanup(self):
        for path in (self.model_path, self.resave_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def make_dataset(pg, w: Workload, X, y):
    return pg.Dataset(
        X=np.ascontiguousarray(X), y=y, feature_names=w.feature_names,
        kinds=["numeric"] * len(w.feature_names), task=w.task, n_outputs=w.n_outputs,
        target_name="y",
    )


def model_sha256(pg, store) -> str:
    """sha256 of the bytes save_model writes for this store."""
    return hashlib.sha256((pg.model.dumps_model(store) + "\n").encode()).hexdigest()


def setup(w: Workload):
    """Fresh `import polygam` plus fold 0's layout; returns the package, the
    layout, and the seconds of the whole setup and of the layout alone."""
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "polygam" or m.startswith("polygam.")]:
        del sys.modules[name]
    pg = importlib.import_module("polygam")
    tr = w.folds[0][0]
    train = make_dataset(pg, w, w.X[tr], w.y[tr])
    t1 = time.perf_counter()
    layout = pg.build_bin_layout(train)
    t2 = time.perf_counter()
    return pg, layout, t2 - t0, t2 - t1


def reference() -> tuple[float, float]:
    """Seconds of the whole fixed pacing workload and of its JSON piece."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    np.sort(REFERENCE_ROWS)
    t1 = time.perf_counter()
    json.loads(json.dumps(REFERENCE_DOC))
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1


class Pacer:
    """Times the reference between samples. factor() gives, for the samples
    taken since the previous call, REFERENCE_S over the mean of the whole
    reference's times before and after them, and REFERENCE_JSON_S over the
    same mean for the JSON piece."""

    def __init__(self, clock=reference):
        self.clock = clock
        self.times = [clock()]

    def factor(self) -> tuple[float, float]:
        self.times.append(self.clock())
        (whole0, json0), (whole1, json1) = self.times[-2:]
        return 2.0 * REFERENCE_S / (whole0 + whole1), 2.0 * REFERENCE_JSON_S / (json0 + json1)


def burst(op, pacer: Pacer) -> tuple[object, list[float], list[tuple[float, float]]]:
    """Run op() at least once and until BURST_S have passed; op returns
    (result, seconds). Returns the last result, every duration, and every
    duration's pacing factors."""
    start = time.perf_counter()
    times, factors = [], []
    while not times or time.perf_counter() - start < BURST_S:
        out, dt = op()
        times.append(dt)
        factors.append(pacer.factor())
    return out, times, factors


def tail(values):
    """Highest nearest-rank percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return {"percentile": 100.0 * rank / n, "value": sorted(values)[rank - 1]}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a source
    checkout without .git reports 'unknown')."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_cap": {
            var: os.environ.get(var)
            for var in ("PB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def end_to_end(b: Bench, seconds: float):
    keys = ("setup_s", "fit_ms_per_iter", "predict_s", "predict_row_us", "se_attach_s",
            "shape_grid_ms", "save_load_ms")
    raw = {k: [] for k in keys}
    s = {k: [] for k in keys}  # paced
    pacer = Pacer()
    row_p99 = []  # of each round's one-row calls

    def record(key, times, factors, scale=1.0, piece=0):
        """piece 0 paces by the whole reference, 1 by its JSON piece."""
        raw[key] += [scale * t for t in times]
        s[key] += [scale * t * f[piece] for t, f in zip(times, factors)]

    def timed_burst(key, op, scale=1.0, piece=0):
        out, times, factors = burst(op, pacer)
        record(key, times, factors, scale, piece)
        return out

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < max(MIN_ROUNDS, len(b.folds)) or time.perf_counter() < deadline:
        fold = b.folds[rounds % len(b.folds)]
        gc.collect()
        timed_burst("setup_s", lambda: (None, setup(b.w)[2]))
        res = timed_burst("fit_ms_per_iter", lambda: b.fit(fold), 1e3 / b.w.iterations)
        store = res.store
        timed_burst("predict_s", lambda: b.predict(store))
        for _ in range(ROW_CALLS // ROW_BLOCK):
            times = b.predict_rows(store, ROW_BLOCK)
            record("predict_row_us", times, [pacer.factor()] * len(times), 1e6)
        row_p99.append(percentile(s["predict_row_us"][-ROW_CALLS:], 99))
        timed_burst("se_attach_s", lambda: b.se_attach(store, fold))
        timed_burst("shape_grid_ms", lambda: b.shape_grids(store), 1e3)
        loaded = timed_burst("save_load_ms", lambda: b.save_load(store), 1e3, piece=1)
        rounds += 1
    b.check_model(store, loaded, fold)
    metrics = {
        "setup_s": statistics.median(s["setup_s"]),
        "fit_ms_per_iter": statistics.median(s["fit_ms_per_iter"]),
        "test_loss": statistics.median(f.test_loss for f in b.folds),
        "predict_rows_per_s": b.w.X_score.shape[0] / statistics.median(s["predict_s"]),
        "predict_row_p50_us": statistics.median(s["predict_row_us"]),
        "predict_row_p99_us": statistics.quantiles(row_p99, n=4)[0],
        "se_attach_s": statistics.median(s["se_attach_s"]),
        "shape_grid_ms": statistics.median(s["shape_grid_ms"]),
        "save_load_ms": statistics.median(s["save_load_ms"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    s["reference_s"] = [whole for whole, _ in pacer.times]
    s["reference_json_s"] = [piece for _, piece in pacer.times]
    for k in keys:
        s[k + ".raw"] = raw[k]
    return metrics, s, rounds


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def aggregate(spans):
    """Per outermost span name, a list with one entry per such span: its
    duration, self time, and the calls and summed seconds of every span
    nested in it, by name."""
    st = self_times(spans)
    by_root = {}
    for idx, root in enumerate(roots(spans)):
        name, start, end, _ = spans[idx]
        if idx == root:
            by_root[idx] = {"name": name, "seconds": end - start, "self": st[idx], "inner": {}}
        else:
            calls, secs = by_root[root]["inner"].get(name, (0, 0.0))
            by_root[root]["inner"][name] = (calls + 1, secs + (end - start))
    by_name: dict[str, list[dict]] = {}
    for agg in by_root.values():
        by_name.setdefault(agg["name"], []).append(agg)
    return by_name


def inner(agg, *names):
    """(calls, seconds) of the named spans nested in one outermost span."""
    found = [agg["inner"].get(n, (0, 0.0)) for n in names]
    return sum(c for c, _ in found), sum(s for _, s in found)


def layer_metrics(spans, iters: int, model_bytes: int) -> dict:
    """Per-layer metrics of one traced round: one fit, one of each score op."""
    agg = aggregate(spans)
    (fit,) = agg["booster.train"]
    (attach,) = agg["uncertainty.attach_se_accumulators"]
    (grids,) = agg["explain.shape_grid"]
    (save_load,) = agg["save_load"]
    (predict,) = agg["model.predict"]
    loss = inner(fit, "losses.loss_eval")
    leaf = inner(fit, "booster.leaf_value")
    gain = inner(fit, "booster.candidate_gain")
    acc = inner(fit, "model.accumulate_update", "model.accumulate_global")
    bins = inner(attach, "data.bin_transform")
    return {
        "losses.derivatives_ms_per_iter": 1e3 * inner(fit, "losses.derivatives")[1] / iters,
        "losses.loss_eval_ms_per_iter": 1e3 * loss[1] / iters,
        "losses.loss_eval_calls_per_iter": loss[0] / iters,
        "booster.self_ms_per_iter": 1e3 * fit["self"] / iters,
        "booster.scoring_ms_per_iter": 1e3 * (leaf[1] + gain[1]) / iters,
        "booster.leaf_value_calls_per_iter": leaf[0] / iters,
        "booster.candidate_gain_calls_per_iter": gain[0] / iters,
        "model.accumulate_ms_per_iter": 1e3 * acc[1] / iters,
        "model.accumulate_calls_per_iter": acc[0] / iters,
        "model.store_copy_calls": inner(fit, "model.ParameterStore.copy")[0],
        "model.predict_ms": 1e3 * predict["seconds"],
        "model.save_ms": 1e3 * inner(save_load, "model.save_model")[1],
        "model.load_ms": 1e3 * inner(save_load, "model.load_model")[1],
        "model.model_bytes": model_bytes,
        "uncertainty.attach_self_ms": 1e3 * attach["self"],
        "uncertainty.bin_transform_calls": bins[0],
        "uncertainty.bin_transform_ms": 1e3 * bins[1],
        "explain.eval_ms": 1e3 * inner(grids, "model.evaluate_shape", "model.evaluate_derivative")[1],
        "uncertainty.shape_ci_ms": 1e3 * inner(grids, "uncertainty.shape_ci")[1],
    }


def per_layer(b: Bench, seconds: float, layout_s: float, trace_path: str):
    tracer = Tracer()
    s = {"build_bin_layout_ms": [1e3 * layout_s], "untraced_fit_s": [], "traced_fit_s": []}
    per_round = []
    deadline = time.perf_counter() + seconds
    while len(per_round) < max(MIN_ROUNDS, len(b.folds)) or time.perf_counter() < deadline:
        fold = b.folds[len(per_round) % len(b.folds)]
        gc.collect()
        s["build_bin_layout_ms"].append(1e3 * setup(b.w)[3])
        s["untraced_fit_s"].append(b.fit(fold)[1])
        tracer.clear()
        b.tracer = tracer
        try:
            with tracer.installed(trace_targets(b.pg)):
                res, dt = b.fit(fold)
                store = res.store
                b.predict(store)
                b.se_attach(store, fold)
                b.shape_grids(store)
                loaded, _ = b.save_load(store)
        finally:
            b.tracer = None
        s["traced_fit_s"].append(dt)
        per_round.append(
            layer_metrics(tracer.spans, res.n_iterations, os.path.getsize(b.model_path))
        )
    tracer.dump(trace_path)
    b.check_model(store, loaded, fold)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["data.build_bin_layout_ms"] = statistics.median(s["build_bin_layout_ms"])
    metrics["trace.overhead_frac"] = (
        statistics.median(s["traced_fit_s"]) / statistics.median(s["untraced_fit_s"]) - 1.0
    )
    return {k: metrics[k] for k in PER_LAYER_UNITS}, s, len(per_round)


# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print the detail line and the result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    pg, layout, _, layout_s = setup(w)
    b = Bench(pg, w, layout)
    trace_path = os.path.join(OUT_DIR, f"trace_{w.name}_seed{seed}.json")
    try:
        if trace:
            metrics, samples, rounds = per_layer(b, seconds, layout_s, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, rounds = end_to_end(b, seconds)
            units = END_TO_END_UNITS
    finally:
        b.cleanup()
    checks = b.checks
    detail = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "iterations": w.iterations,
        "rounds": rounds,
        "model_sha256": b.folds[0].sha256,
        "fold_sha256": [f.sha256 for f in b.folds],
        "fold_test_loss": [f.test_loss for f in b.folds],
        "failed_frac": checks.failed / checks.attempted,
        "checks": checks.summary(),
        "samples": {
            k: {"n": len(v), "min": min(v), "q25": float(np.quantile(v, 0.25)),
                "median": statistics.median(v), "tail": tail(v)}
            for k, v in samples.items()
        },
        "spans_file": os.path.relpath(trace_path, ROOT) if trace else None,
    }
    print(json.dumps(detail))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
