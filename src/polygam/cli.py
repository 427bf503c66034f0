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
from dataclasses import dataclass, replace
from itertools import groupby

from .booster import TrainConfig, train, write_log
from .data import (SplitScheme, TASKS, build_bin_layout, fraction_problems, load_csv,
                   load_feature_matrix, split_indices)
from .errors import ConfigError, DataError, NumericError
from .explain import DEFAULT_GRID, export_shapes
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
    categorical: tuple[str, ...]
    fractions: tuple[float, float, float]
    seed: int
    train_config: TrainConfig
    scheme: SplitScheme
    smoothness: int
    max_degree: int
    feature_overrides: dict  # name -> FeatureConstraint
    outputs_for: dict  # name -> list[int]


def _defaults() -> RunConfig:
    """Each key's value when the file leaves it out; None marks a required key."""
    fc = FeatureConstraint()
    return RunConfig(
        train_path=None, target=None, task=None, out_dir=None,
        categorical=(), fractions=(0.7, 0.1, 0.2), seed=0,
        train_config=TrainConfig(validation_fraction=0.0), scheme=SplitScheme(),
        smoothness=fc.smoothness, max_degree=fc.max_degree,
        feature_overrides={}, outputs_for={},
    )


def _names(raw: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in raw.split(",") if c.strip())


def _fractions(raw: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in raw.split(","))
    if len(parts) != 3:
        raise ValueError(raw)
    return parts


# The INI grammar, in the order config_resolved.ini writes it:
# (section, key, the RunConfig field it sets, parser). A dotted field is an
# attribute of train_config or scheme. `parse_config` and `resolved_ini`
# both walk this table; `_defaults` gives each key's default.
GRAMMAR = (
    ("data", "train", "train_path", str),
    ("data", "target", "target", str),
    ("data", "task", "task", str),
    ("data", "categorical", "categorical", _names),
    ("split", "fractions", "fractions", _fractions),
    ("split", "seed", "seed", int),
    ("train", "learning_rate", "train_config.learning_rate", float),
    ("train", "l1", "train_config.l1", float),
    ("train", "l2", "train_config.l2", float),
    ("train", "min_data_in_leaf", "train_config.min_data_in_leaf", int),
    ("train", "max_iterations", "train_config.max_iterations", int),
    ("train", "early_stopping_patience", "train_config.early_stopping_patience", int),
    ("train", "n_bins_degree0", "scheme.n_bins_degree0", int),
    ("train", "n_bins_higher", "scheme.n_bins_higher", int),
    ("constraints", "smoothness", "smoothness", int),
    ("constraints", "max_degree", "max_degree", int),
    ("output", "dir", "out_dir", str),
)

# The keys of a `feature.<name> = monotone=-1 curvature=+1 S=2 D=3 outputs=[2]`
# line, in the order the resolved line writes them, with the FeatureConstraint
# attribute each sets; `outputs` sets the feature's allowed outputs instead.
FEATURE_KEYS = {
    "monotone": "monotone", "curvature": "curvature", "S": "smoothness", "D": "max_degree",
    "outputs": None,
}
_FEATURE_ATTRS = {key.lower(): attr for key, attr in FEATURE_KEYS.items()}


def _field(cfg: RunConfig, path: str):
    """The object and attribute name a GRAMMAR field path names."""
    owner, _, attr = path.rpartition(".")
    return (getattr(cfg, owner) if owner else cfg), attr


def _parse_feature_value(name: str, value: str, errs: list[str]):
    """The FeatureConstraint settings, by attribute, and the output list (None
    when not given) of one `feature.<name>` line."""
    settings = {}
    outputs = None
    for token in value.split():
        key, eq, raw = token.partition("=")
        key = key.lower()
        if not eq:
            errs.append(f"feature {name!r}: expected key=value, got {token!r}")
        elif key not in _FEATURE_ATTRS:
            errs.append(f"feature {name!r}: unknown setting {key!r}")
        elif key != "outputs":
            try:
                settings[_FEATURE_ATTRS[key]] = int(raw)
            except ValueError:
                errs.append(f"feature {name!r}: {key} must be an integer, got {raw!r}")
        elif not (raw.startswith("[") and raw.endswith("]")):
            errs.append(f"feature {name!r}: outputs must look like [0,2], got {raw!r}")
        else:
            try:
                outputs = [int(p) for p in raw[1:-1].split(",") if p.strip() != ""]
            except ValueError:
                errs.append(f"feature {name!r}: bad outputs list {raw!r}")
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
    keys = {(section, key) for section, key, _, _ in GRAMMAR}
    for section in cp.sections():
        if section not in {s for s, _ in keys}:
            errs.append(f"unknown section [{section}]")
            continue
        errs += [f"unknown key {key!r} in [{section}]" for key in cp[section]
                 if (section, key) not in keys
                 and not (section == "constraints" and key.startswith("feature."))]

    cfg = _defaults()
    for section, key, where, parse in GRAMMAR:
        owner, attr = _field(cfg, where)
        if not cp.has_option(section, key):
            if getattr(owner, attr) is None:
                errs.append(f"missing required key {key!r} in [{section}]")
            continue
        raw = cp.get(section, key)
        try:
            setattr(owner, attr, parse(raw))
        except (TypeError, ValueError):
            errs.append(f"[{section}] {key}: cannot parse {raw!r}")

    if cfg.task is not None and cfg.task not in TASKS:
        errs.append(f"[data] task must be one of {', '.join(TASKS)}; got {cfg.task!r}")
    errs.extend(fraction_problems(cfg.fractions))
    if cfg.fractions[0] <= 0:
        errs.append("[split] train fraction must be positive")
    if cfg.seed < 0:
        errs.append(f"[split] seed must be an integer >= 0, got {cfg.seed}")
    errs.extend(cfg.scheme.problems())
    try:
        cfg.train_config.validate()
    except ConfigError as exc:
        errs.append(str(exc))

    base = FeatureConstraint(smoothness=cfg.smoothness, max_degree=cfg.max_degree)
    for key in cp["constraints"] if cp.has_section("constraints") else ():
        if key.startswith("feature."):
            name = key[len("feature."):]
            settings, outputs = _parse_feature_value(name, cp.get("constraints", key), errs)
            fc = cfg.feature_overrides[name] = replace(base, **settings)
            errs.extend(fc.validate(name))
            if outputs is not None:
                cfg.outputs_for[name] = outputs

    if errs:
        raise ConfigError("; ".join(errs))
    return cfg


def resolved_ini(cfg: RunConfig) -> str:
    """Render the fully resolved configuration; reloading it reproduces the run."""
    blocks = []
    for section, rows in groupby(GRAMMAR, key=lambda row: row[0]):
        lines = [f"[{section}]"]
        for _, key, where, _ in rows:
            value = getattr(*_field(cfg, where))
            if isinstance(value, tuple):  # categorical or fractions; no categorical: no line
                value = ",".join(map(str, value)) or None
            if value is not None:
                lines.append(f"{key} = {value}")
        for name, fc in sorted(cfg.feature_overrides.items()) if section == "constraints" else ():
            parts = [f"{key}={getattr(fc, attr)}" for key, attr in FEATURE_KEYS.items() if attr]
            if name in cfg.outputs_for:
                parts.append(f"outputs=[{','.join(map(str, cfg.outputs_for[name]))}]")
            lines.append(f"feature.{name} = {' '.join(parts)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


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
    pe.add_argument("--grid", type=int, default=DEFAULT_GRID, help="grid points per shape")
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
