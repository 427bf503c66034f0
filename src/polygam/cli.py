"""Batch command-line front end: train, predict, and explain.

Configuration is INI-style (see README for the grammar). The PB_THREADS
environment variable caps BLAS/OpenMP parallelism; it is applied in the
package __init__ before numpy is first imported.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .booster import TrainConfig, train, write_log
from .data import SplitScheme, TASKS, build_bin_layout, load_csv, load_feature_matrix, split_indices
from .errors import ConfigError, DataError, NumericError
from .explain import export_shapes
from .losses import link_apply, loss_eval
from .model import (
    ConstraintSpec,
    FeatureConstraint,
    load_model,
    predict,
    save_model,
)
from .uncertainty import attach_se_accumulators

LOCK_NAME = ".lock"


@dataclass
class RunConfig:
    """Everything a training run needs, resolved from one INI file."""

    train_path: str
    target: str
    task: str
    out_dir: str
    categorical: tuple[str, ...] = ()
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    seed: int = 0
    train_config: TrainConfig = field(default_factory=TrainConfig)
    scheme: SplitScheme = field(default_factory=SplitScheme)
    smoothness: int = -1
    max_degree: int = 3
    feature_overrides: dict = field(default_factory=dict)  # name -> FeatureConstraint
    outputs_for: dict = field(default_factory=dict)  # name -> list[int]


_FEATURE_KEYS = ("monotone", "curvature", "s", "d", "outputs")


def _parse_feature_value(name: str, value: str, errs: list[str]):
    """Parse one `feature.<name> = monotone=-1 curvature=+1 S=2 D=3 outputs=[2]` line."""
    settings = {}
    outputs = None
    for token in value.split():
        if "=" not in token:
            errs.append(f"feature {name!r}: expected key=value, got {token!r}")
            continue
        key, _, raw = token.partition("=")
        key = key.lower()
        if key not in _FEATURE_KEYS:
            errs.append(f"feature {name!r}: unknown setting {key!r}")
            continue
        if key == "outputs":
            if not (raw.startswith("[") and raw.endswith("]")):
                errs.append(f"feature {name!r}: outputs must look like [0,2], got {raw!r}")
                continue
            try:
                outputs = [int(p) for p in raw[1:-1].split(",") if p.strip() != ""]
            except ValueError:
                errs.append(f"feature {name!r}: bad outputs list {raw!r}")
            continue
        try:
            settings[key] = int(raw)
        except ValueError:
            errs.append(f"feature {name!r}: {key} must be an integer, got {raw!r}")
    return settings, outputs


def parse_config(path: str) -> RunConfig:
    """Read and validate a run configuration, reporting every problem at once."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    errs: list[str] = []
    known = {
        "data": {"train", "target", "task", "categorical"},
        "split": {"fractions", "seed"},
        "train": {
            "learning_rate", "l1", "l2", "min_data_in_leaf", "max_iterations",
            "early_stopping_patience", "n_bins_degree0", "n_bins_higher",
        },
        "constraints": {"smoothness", "max_degree"},
        "output": {"dir"},
    }
    for section in cp.sections():
        if section not in known:
            errs.append(f"unknown section [{section}]")
            continue
        for key in cp[section]:
            if section == "constraints" and key.startswith("feature."):
                continue
            if key not in known[section]:
                errs.append(f"unknown key {key!r} in [{section}]")

    def get(section, key, cast, default=None, required=False):
        if not cp.has_option(section, key):
            if required:
                errs.append(f"missing required key {key!r} in [{section}]")
            return default
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError):
            errs.append(f"[{section}] {key}: cannot parse {raw!r}")
            return default

    train_path = get("data", "train", str, required=True)
    target = get("data", "target", str, required=True)
    task = get("data", "task", str, required=True)
    if task is not None and task not in TASKS:
        errs.append(f"[data] task must be one of {', '.join(TASKS)}; got {task!r}")
    cat_raw = get("data", "categorical", str, default="")
    categorical = tuple(c.strip() for c in cat_raw.split(",") if c.strip()) if cat_raw else ()

    def _fractions(raw: str):
        parts = [float(p) for p in raw.split(",")]
        if len(parts) != 3:
            raise ValueError(raw)
        return tuple(parts)

    fractions = get("split", "fractions", _fractions, default=(0.7, 0.1, 0.2))
    if fractions is not None:
        if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
            errs.append(f"[split] fractions must be non-negative and sum to 1, got {fractions}")
        if fractions[0] <= 0:
            errs.append("[split] train fraction must be positive")
    seed = get("split", "seed", int, default=0)
    if seed < 0:
        errs.append(f"[split] seed must be an integer >= 0, got {seed}")

    tc = TrainConfig(validation_fraction=0.0)
    tc.learning_rate = get("train", "learning_rate", float, tc.learning_rate)
    tc.l1 = get("train", "l1", float, tc.l1)
    tc.l2 = get("train", "l2", float, tc.l2)
    tc.min_data_in_leaf = get("train", "min_data_in_leaf", int, tc.min_data_in_leaf)
    tc.max_iterations = get("train", "max_iterations", int, tc.max_iterations)
    tc.early_stopping_patience = get(
        "train", "early_stopping_patience", int, tc.early_stopping_patience
    )
    scheme = SplitScheme()
    scheme.n_bins_degree0 = get("train", "n_bins_degree0", int, scheme.n_bins_degree0)
    scheme.n_bins_higher = get("train", "n_bins_higher", int, scheme.n_bins_higher)
    errs.extend(scheme.problems())
    try:
        tc.validate()
    except ConfigError as exc:
        errs.append(str(exc))

    smoothness = get("constraints", "smoothness", int, -1)
    max_degree = get("constraints", "max_degree", int, 3)
    overrides: dict[str, FeatureConstraint] = {}
    outputs_for: dict[str, list[int]] = {}
    if cp.has_section("constraints"):
        for key in cp["constraints"]:
            if not key.startswith("feature."):
                continue
            name = key[len("feature.") :]
            settings, outputs = _parse_feature_value(name, cp.get("constraints", key), errs)
            fc = FeatureConstraint(
                smoothness=settings.get("s", smoothness),
                max_degree=settings.get("d", max_degree),
                monotone=settings.get("monotone", 0),
                curvature=settings.get("curvature", 0),
            )
            errs.extend(fc.validate(name))
            overrides[name] = fc
            if outputs is not None:
                outputs_for[name] = outputs

    out_dir = get("output", "dir", str, required=True)

    if errs:
        raise ConfigError("; ".join(errs))
    return RunConfig(
        train_path=train_path,
        target=target,
        task=task,
        out_dir=out_dir,
        categorical=categorical,
        fractions=fractions,
        seed=seed,
        train_config=tc,
        scheme=scheme,
        smoothness=smoothness,
        max_degree=max_degree,
        feature_overrides=overrides,
        outputs_for=outputs_for,
    )


def resolved_ini(cfg: RunConfig) -> str:
    """Render the fully resolved configuration; reloading it reproduces the run."""
    tc = cfg.train_config
    lines = [
        "[data]",
        f"train = {cfg.train_path}",
        f"target = {cfg.target}",
        f"task = {cfg.task}",
    ]
    if cfg.categorical:
        lines.append(f"categorical = {','.join(cfg.categorical)}")
    lines += [
        "",
        "[split]",
        f"fractions = {cfg.fractions[0]!r},{cfg.fractions[1]!r},{cfg.fractions[2]!r}",
        f"seed = {cfg.seed}",
        "",
        "[train]",
        f"learning_rate = {tc.learning_rate!r}",
        f"l1 = {tc.l1!r}",
        f"l2 = {tc.l2!r}",
        f"min_data_in_leaf = {tc.min_data_in_leaf}",
        f"max_iterations = {tc.max_iterations}",
        f"early_stopping_patience = {tc.early_stopping_patience}",
        f"n_bins_degree0 = {cfg.scheme.n_bins_degree0}",
        f"n_bins_higher = {cfg.scheme.n_bins_higher}",
        "",
        "[constraints]",
        f"smoothness = {cfg.smoothness}",
        f"max_degree = {cfg.max_degree}",
    ]
    for name in sorted(set(cfg.feature_overrides) | set(cfg.outputs_for)):
        fc = cfg.feature_overrides.get(
            name, FeatureConstraint(cfg.smoothness, cfg.max_degree)
        )
        parts = [
            f"monotone={fc.monotone}",
            f"curvature={fc.curvature}",
            f"S={fc.smoothness}",
            f"D={fc.max_degree}",
        ]
        if name in cfg.outputs_for:
            parts.append(f"outputs=[{','.join(str(i) for i in cfg.outputs_for[name])}]")
        lines.append(f"feature.{name} = {' '.join(parts)}")
    lines += ["", "[output]", f"dir = {cfg.out_dir}", ""]
    return "\n".join(lines)


class _Lock:
    """Exclusive per-output-directory lockfile; a live lock is a config error."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, LOCK_NAME)

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory is locked by another run ({self.path}); "
                "remove the lockfile if that run is dead"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def cmd_train(args) -> None:
    cfg = parse_config(args.config)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with _Lock(cfg.out_dir):
        ds = load_csv(cfg.train_path, cfg.target, cfg.task, cfg.categorical)
        labels = ds.y if cfg.task != "regression" else None
        tr_idx, va_idx, te_idx = split_indices(ds.n_rows, cfg.fractions, cfg.seed, labels)
        ds_train = ds.subset(tr_idx)
        ds_valid = ds.subset(va_idx) if va_idx.size else None
        ds_test = ds.subset(te_idx) if te_idx.size else None

        layout = build_bin_layout(ds_train, cfg.scheme)
        constraints = ConstraintSpec.default(
            ds, cfg.smoothness, cfg.max_degree, cfg.feature_overrides, cfg.outputs_for
        )
        result = train(
            ds_train,
            layout=layout,
            constraints=constraints,
            config=cfg.train_config,
            valid=ds_valid,
        )
        store = result.store
        attach_se_accumulators(store, ds_train.X)

        model_path = os.path.join(cfg.out_dir, "model.json")
        save_model(store, model_path)
        write_log(result.log, os.path.join(cfg.out_dir, "training_log.ndjson"))

        metrics = {"train": loss_eval(cfg.task, ds_train.y, predict(store, ds_train.X))}
        metrics["valid"] = (
            loss_eval(cfg.task, ds_valid.y, predict(store, ds_valid.X)) if ds_valid else None
        )
        metrics["test"] = (
            loss_eval(cfg.task, ds_test.y, predict(store, ds_test.X)) if ds_test else None
        )
        with open(os.path.join(cfg.out_dir, "metrics.json"), "w") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(cfg.out_dir, "config_resolved.ini"), "w") as fh:
            fh.write(resolved_ini(cfg))
    print(f"model written to {model_path}")
    print(
        f"stopped after {result.n_iterations} iterations, "
        f"kept iteration {result.best_iteration}"
    )


def cmd_predict(args) -> None:
    store = load_model(args.model)
    X = load_feature_matrix(args.data, store.feature_names, ignore=(store.target_name,))
    F = predict(store, X)
    yhat = link_apply(store.task, F)
    J = store.n_outputs
    header = (
        ["row"]
        + [f"F_{i}" for i in range(J)]
        + [f"yhat_{i}" for i in range(J)]
    )
    with open(args.out, "w") as fh:
        fh.write(",".join(header) + "\n")
        for n in range(F.shape[0]):
            cells = [str(n)]
            cells += [repr(float(v)) for v in F[n]]
            cells += [repr(float(v)) for v in yhat[n]]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {F.shape[0]} predictions to {args.out}")


def cmd_explain(args) -> None:
    store = load_model(args.model)
    features = None
    if args.features:
        features = [f.strip() for f in args.features.split(",") if f.strip()]
    grids = export_shapes(
        store, args.out, features=features, grid_size=args.grid, with_ci=args.ci
    )
    print(f"wrote {len(grids)} shape exports to {args.out}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polygam",
        description="Additive models with piecewise-polynomial shape functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train", help="train a model from an INI config")
    pt.add_argument("-c", "--config", required=True, help="path to config INI")
    pt.set_defaults(func=cmd_train)

    pp = sub.add_parser("predict", help="score a CSV with a saved model")
    pp.add_argument("-m", "--model", required=True, help="model JSON path")
    pp.add_argument("-d", "--data", required=True, help="input CSV path")
    pp.add_argument("-o", "--out", required=True, help="output CSV path")
    pp.set_defaults(func=cmd_predict)

    pe = sub.add_parser("explain", help="export shape functions as CSV and SVG")
    pe.add_argument("-m", "--model", required=True, help="model JSON path")
    pe.add_argument("--features", default=None, help="comma-separated feature filter")
    pe.add_argument("--grid", type=int, default=512, help="grid points per shape")
    pe.add_argument("--ci", action="store_true", help="include 95%% confidence bands")
    pe.add_argument("-o", "--out", required=True, help="output directory")
    pe.set_defaults(func=cmd_explain)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
