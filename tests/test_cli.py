"""Batch front end: config parsing, train/predict/explain runs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polygam.cli import FEATURE_KEYS, GRAMMAR, _build_parser, main, parse_config, resolved_ini
from polygam.data import split_indices
from polygam.errors import ConfigError
from polygam.explain import DEFAULT_GRID


def write_regression_csv(path, n=240, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0, 2, n)
    x1 = rng.uniform(-1, 1, n)
    y = np.sin(2 * x0) + x1**2 + rng.normal(scale=0.2, size=n)
    with open(path, "w") as fh:
        fh.write("x0,x1,y\n")
        for a, b, t in zip(x0.tolist(), x1.tolist(), y.tolist()):
            fh.write(f"{a!r},{b!r},{t!r}\n")
    return y


def write_config(path, data_path, out_dir, extra="", max_iterations=80, patience=10):
    path = str(path)
    with open(path, "w") as fh:
        fh.write(
            f"""[data]
train = {data_path}
target = y
task = regression

[split]
fractions = 0.7,0.1,0.2
seed = 3

[train]
max_iterations = {max_iterations}
early_stopping_patience = {patience}
n_bins_degree0 = 64
n_bins_higher = 12
{extra}
[output]
dir = {out_dir}
"""
        )
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_fills_defaults(tmp_path):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    cfg = parse_config(write_config(tmp_path / "run.ini", csv, tmp_path / "out"))
    assert cfg.task == "regression"
    assert cfg.fractions == (0.7, 0.1, 0.2)
    assert cfg.train_config.learning_rate == 0.1
    assert cfg.train_config.l1 == 0.001
    assert cfg.train_config.l2 == 0.01
    assert cfg.train_config.min_data_in_leaf == 10
    assert cfg.scheme.n_bins_degree0 == 64
    assert cfg.smoothness == -1 and cfg.max_degree == 3


def test_parse_config_feature_line_grammar(tmp_path):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    extra = """
[constraints]
smoothness = 0
max_degree = 2
feature.x0 = monotone=-1 curvature=+1 S=2 D=3 outputs=[0]
"""
    cfg = parse_config(write_config(tmp_path / "run.ini", csv, tmp_path / "out", extra))
    fc = cfg.feature_overrides["x0"]
    assert (fc.monotone, fc.curvature, fc.smoothness, fc.max_degree) == (-1, 1, 2, 3)
    assert cfg.outputs_for == {"x0": [0]}
    assert cfg.smoothness == 0 and cfg.max_degree == 2


def test_parse_config_reports_all_errors_at_once(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(
        """[data]
train = missing.csv
task = nosuchtask

[split]
fractions = 0.5,0.2,0.2

[mystery]
zap = 1

[train]
learning_rate = 2.0
n_bins_higher = 0
typo_key = 3
snapshot_every = 100

[constraints]
feature.x0 = monotone=7

[output]
dir = out
"""
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(str(p))
    msg = str(exc.value)
    assert "target" in msg  # missing required
    assert "nosuchtask" in msg
    assert "fractions" in msg
    assert "[mystery]" in msg
    assert "typo_key" in msg
    assert "snapshot_every" in msg  # retired key is refused, not ignored
    assert "learning_rate" in msg
    assert "n_bins_higher must be an integer >= 1, got 0" in msg
    assert "x0" in msg and "monotone" in msg  # invalid sign names the feature


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/run.ini")


def test_resolved_ini_is_a_fixed_point(tmp_path):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    extra = """
[constraints]
feature.x1 = monotone=1 S=0 D=2
"""
    cfg = parse_config(write_config(tmp_path / "run.ini", csv, tmp_path / "out", extra))
    text1 = resolved_ini(cfg)
    p2 = tmp_path / "resolved.ini"
    p2.write_text(text1)
    cfg2 = parse_config(str(p2))
    assert resolved_ini(cfg2) == text1


EVERY_KEY_INI = """[data]
train = data/train.csv
target = y
task = multiclass
categorical = city, zone

[split]
fractions = 0.6,0.15,0.25
seed = 7

[train]
learning_rate = 0.05
l1 = 0.0
l2 = 0.5
min_data_in_leaf = 4
max_iterations = 300
early_stopping_patience = 20
n_bins_degree0 = 128
n_bins_higher = 16

[constraints]
smoothness = 1
max_degree = 3
feature.price = monotone=-1 curvature=+1 S=1 D=3
feature.region_cost = monotone=-1 outputs=[2,0]

[output]
dir = out/run1
"""

EVERY_KEY_RESOLVED = """[data]
train = data/train.csv
target = y
task = multiclass
categorical = city,zone

[split]
fractions = 0.6,0.15,0.25
seed = 7

[train]
learning_rate = 0.05
l1 = 0.0
l2 = 0.5
min_data_in_leaf = 4
max_iterations = 300
early_stopping_patience = 20
n_bins_degree0 = 128
n_bins_higher = 16

[constraints]
smoothness = 1
max_degree = 3
feature.price = monotone=-1 curvature=1 S=1 D=3
feature.region_cost = monotone=-1 curvature=0 S=1 D=3 outputs=[2,0]

[output]
dir = out/run1
"""

README_RESOLVED = """[data]
train = data/train.csv
target = y
task = regression

[split]
fractions = 0.7,0.1,0.2
seed = 3

[train]
learning_rate = 0.1
l1 = 0.001
l2 = 0.01
min_data_in_leaf = 10
max_iterations = 25000
early_stopping_patience = 100
n_bins_degree0 = 256
n_bins_higher = 20

[constraints]
smoothness = 1
max_degree = 3
feature.price = monotone=-1 curvature=1 S=1 D=3
feature.region_cost = monotone=-1 curvature=0 S=1 D=3 outputs=[2]

[output]
dir = out/run1
"""


def readme_ini():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)


@pytest.mark.parametrize("text, want", [(EVERY_KEY_INI, EVERY_KEY_RESOLVED),
                                        (None, README_RESOLVED)], ids=["every-key", "readme"])
def test_resolved_ini_text_is_pinned(tmp_path, text, want):
    p = tmp_path / "run.ini"
    p.write_text(readme_ini() if text is None else text)
    assert resolved_ini(parse_config(str(p))) == want


def test_readme_example_names_every_key_of_the_grammar():
    keys, feature_keys, section = set(), set(), None
    for line in readme_ini().splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.startswith("feature."):
            feature_keys |= {t.partition("=")[0] for t in line.partition(" = ")[2].split()}
        elif "=" in line:
            keys.add((section, line.lstrip("; ").partition(" =")[0]))
    assert keys == {(section, key) for section, key, _, _ in GRAMMAR}
    assert feature_keys == set(FEATURE_KEYS)


@pytest.mark.parametrize("fractions", ["nan,0.5,0.5", "0.5,nan,0.5", "1.0,0.0,nan"])
def test_nan_split_fractions_are_refused_before_the_run_starts(tmp_path, capsys, fractions):
    # NaN passes both `f < 0` and `abs(sum - 1) > tol` unnoticed
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out", "learning_rate = 2.0\n")
    with open(ini) as fh:
        text = fh.read()
    with open(ini, "w") as fh:
        fh.write(text.replace("fractions = 0.7,0.1,0.2", f"fractions = {fractions}"))
    assert main(["train", "-c", ini]) == 2
    err = capsys.readouterr().err
    assert "split fractions must each lie in [0, 1]" in err and "learning_rate" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train


def run_train(tmp_path, tag, extra="", seed=0, n=240, **kw):
    csv = tmp_path / f"data_{tag}.csv"
    y = write_regression_csv(csv, n=n, seed=seed)
    out = tmp_path / f"out_{tag}"
    ini = write_config(tmp_path / f"run_{tag}.ini", csv, out, extra, **kw)
    rc = main(["train", "-c", ini])
    assert rc == 0
    return out, y, csv


def test_train_writes_all_artifacts(tmp_path):
    out, _, _ = run_train(tmp_path, "a")
    for name in ("model.json", "training_log.ndjson", "metrics.json", "config_resolved.ini"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"train", "valid", "test"}
    assert all(np.isfinite(v) for v in metrics.values())
    assert not (out / ".lock").exists()  # released


def test_train_determinism_byte_identical(tmp_path):
    out1, _, _ = run_train(tmp_path, "d1")
    out2, _, _ = run_train(tmp_path, "d2")
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "training_log.ndjson").read_bytes() == (
        out2 / "training_log.ndjson"
    ).read_bytes()


def test_resolved_config_reproduces_run(tmp_path):
    out1, _, _ = run_train(tmp_path, "r1")
    resolved = (out1 / "config_resolved.ini").read_text()
    out3 = tmp_path / "out_r3"
    rerun = resolved.replace(f"dir = {out1}", f"dir = {out3}")
    ini = tmp_path / "rerun.ini"
    ini.write_text(rerun)
    assert main(["train", "-c", str(ini)]) == 0
    assert (out1 / "model.json").read_bytes() == (out3 / "model.json").read_bytes()


def test_zero_iterations_gives_mean_predictor(tmp_path):
    out, y, _ = run_train(tmp_path, "z", max_iterations=0, patience=0)
    metrics = json.loads((out / "metrics.json").read_text())
    tr, va, te = split_indices(y.size, (0.7, 0.1, 0.2), seed=3)
    want = float(np.mean((y[te] - y[tr].mean()) ** 2))
    assert metrics["test"] == pytest.approx(want, abs=1e-9)
    # equals the test-partition variance up to the squared mean shift
    gap = (y[te].mean() - y[tr].mean()) ** 2
    assert abs(metrics["test"] - y[te].var()) <= gap + 1e-9


def test_lockfile_blocks_concurrent_run(tmp_path):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    out = tmp_path / "out"
    os.makedirs(out)
    (out / ".lock").write_text("12345")
    ini = write_config(tmp_path / "run.ini", csv, out)
    assert main(["train", "-c", ini]) == 2
    assert (out / ".lock").read_text() == "12345"  # foreign lock untouched


def test_invalid_monotone_sign_exits_2(tmp_path):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    extra = "\n[constraints]\nfeature.x0 = monotone=5\n"
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out", extra)
    assert main(["train", "-c", ini]) == 2


@pytest.mark.parametrize("line", ["l1 = nan", "l2 = inf", "l1 = -inf"])
def test_non_finite_penalty_exits_2(tmp_path, capsys, line):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out", line + "\n")
    assert main(["train", "-c", ini]) == 2
    assert line.split()[0] + " must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize(
    "line", ["n_bins_higher = 0", "n_bins_higher = -3", "n_bins_degree0 = 0"])
def test_bin_count_below_one_exits_2(tmp_path, capsys, line):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out")
    key = line.split()[0]
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace(f"{key} = {12 if key == 'n_bins_higher' else 64}", line))
    assert main(["train", "-c", ini]) == 2
    assert f"{key} must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_split_seed_is_reported_with_the_other_problems(tmp_path, seed):
    csv = tmp_path / "d.csv"
    write_regression_csv(csv)
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out", "learning_rate = 2.0\n")
    with open(ini) as fh:
        text = fh.read()
    with open(ini, "w") as fh:
        fh.write(text.replace("seed = 3", f"seed = {seed}"))
    with pytest.raises(ConfigError) as exc:
        parse_config(ini)
    msg = str(exc.value)
    assert "[split] seed" in msg and "learning_rate" in msg
    assert main(["train", "-c", ini]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_2():
    assert main(["train", "-c", "/nonexistent.ini"]) == 2


def test_bad_data_exits_3(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x0,y\n1.0,nan\n")
    ini = write_config(tmp_path / "run.ini", csv, tmp_path / "out")
    assert main(["train", "-c", ini]) == 3


# ---------------------------------------------------------------------------
# predict


def test_predict_reproduces_training_loss(tmp_path):
    csv = tmp_path / "d.csv"
    y = write_regression_csv(csv, n=160, seed=2)
    out = tmp_path / "out"
    ini = write_config(tmp_path / "run.ini", csv, out, max_iterations=60, patience=0)
    # train on the full file so the log's train loss covers the same rows
    text = Path(ini).read_text().replace("fractions = 0.7,0.1,0.2", "fractions = 1.0,0.0,0.0")
    Path(ini).write_text(text)
    assert main(["train", "-c", ini]) == 0

    preds = tmp_path / "preds.csv"
    assert main(["predict", "-m", str(out / "model.json"), "-d", str(csv), "-o", str(preds)]) == 0
    rows = preds.read_text().splitlines()
    assert rows[0] == "row,F_0,yhat_0"
    F = np.array([float(r.split(",")[1]) for r in rows[1:]])
    got = float(np.mean((y - F) ** 2))
    last = json.loads((out / "training_log.ndjson").read_text().splitlines()[-1])
    assert abs(got - last["train_loss"]) <= 1e-9


def test_predict_empty_file_header_only(tmp_path):
    out, _, csv = run_train(tmp_path, "p2")
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1\n")
    preds = tmp_path / "p.csv"
    assert main(["predict", "-m", str(out / "model.json"), "-d", str(empty), "-o", str(preds)]) == 0
    assert preds.read_text() == "row,F_0,yhat_0\n"


def test_predict_unknown_column_exits_3(tmp_path):
    out, _, _ = run_train(tmp_path, "p3")
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,zz\n0.5,0.5,1.0\n")
    assert main(["predict", "-m", str(out / "model.json"), "-d", str(bad), "-o", str(tmp_path / "o.csv")]) == 3


def test_predict_with_a_file_that_is_not_a_model_exits_3(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n0.5,0.5\n")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["predict", "-m", str(bad), "-d", str(data), "-o", str(tmp_path / "o.csv")]) == 3
    assert "data error: " in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_predict_with_a_mask_of_the_wrong_shape_exits_3(tmp_path, capsys):
    out, _, csv = run_train(tmp_path, "p5")
    doc = json.loads((out / "model.json").read_text())
    doc["allow_mask"] = [[True]]  # two features
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["predict", "-m", str(bad), "-d", str(csv), "-o", str(tmp_path / "o.csv")]) == 3
    assert "allow mask shape (1, 1) does not match" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_predict_ignores_training_target_column(tmp_path):
    out, _, csv = run_train(tmp_path, "p4")
    preds = tmp_path / "p.csv"
    assert main(["predict", "-m", str(out / "model.json"), "-d", str(csv), "-o", str(preds)]) == 0
    assert len(preds.read_text().splitlines()) == 241


# ---------------------------------------------------------------------------
# explain


def test_explain_default_grid_and_ci(tmp_path):
    out, _, _ = run_train(tmp_path, "e1")
    shapes = tmp_path / "shapes"
    assert main(["explain", "-m", str(out / "model.json"), "--ci", "-o", str(shapes)]) == 0
    files = sorted(os.listdir(shapes))
    assert files == ["shape_0_x0.csv", "shape_0_x0.svg", "shape_0_x1.csv", "shape_0_x1.svg"]
    lines = (shapes / "shape_0_x0.csv").read_text().splitlines()
    assert lines[0] == "x,f,f_prime,f_double_prime,ci_lower,ci_upper"
    assert len(lines) == 513
    for line in lines[1:]:
        _, f, _, _, lo, hi = (float(v) for v in line.split(","))
        assert lo <= f <= hi


def test_explain_feature_filter_and_grid(tmp_path):
    out, _, _ = run_train(tmp_path, "e2")
    shapes = tmp_path / "shapes"
    rc = main(
        ["explain", "-m", str(out / "model.json"), "--features", "x1", "--grid", "16", "-o", str(shapes)]
    )
    assert rc == 0
    files = sorted(os.listdir(shapes))
    assert files == ["shape_0_x1.csv", "shape_0_x1.svg"]
    assert len((shapes / "shape_0_x1.csv").read_text().splitlines()) == 17


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_explain_empty_grid_exits_2(tmp_path, capsys, grid):
    out, _, _ = run_train(tmp_path, "e4")
    shapes = tmp_path / "s"
    assert main(["explain", "-m", str(out / "model.json"), "--grid", grid, "-o", str(shapes)]) == 2
    assert f"grid_size must be >= 1, got {grid}" in capsys.readouterr().err
    assert not shapes.exists()


def test_explain_unknown_feature_exits_2(tmp_path):
    out, _, _ = run_train(tmp_path, "e3")
    assert main(["explain", "-m", str(out / "model.json"), "--features", "zz", "-o", str(tmp_path / "s")]) == 2


# ---------------------------------------------------------------------------
# environment


def test_pb_threads_seeds_blas_env():
    code = (
        "import os, polygam; "
        "print(os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"
    )
    env = dict(os.environ, PB_THREADS="2")
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "2"]


def test_pb_threads_does_not_override_explicit_setting():
    code = "import os, polygam; print(os.environ['OMP_NUM_THREADS'])"
    env = dict(os.environ, PB_THREADS="2", OMP_NUM_THREADS="7")
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "7"


def test_pb_threads_warns_when_numpy_was_imported_first():
    env = dict(os.environ, PB_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    late, early = (
        subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                       capture_output=True, text=True)
        for code in ("import numpy, polygam", "import polygam, numpy")
    )
    assert late.returncode != 0
    assert "RuntimeWarning: PB_THREADS has no effect" in late.stderr
    assert early.returncode == 0, early.stderr


def test_explain_grid_defaults_to_the_library_grid():
    args = _build_parser().parse_args(["explain", "-m", "model.json", "-o", "out"])
    assert args.grid == DEFAULT_GRID
