"""Link functions, losses, and analytic derivatives against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.booster import LogRecord, _add_update, _start_scores
from polygam.data import SplitScheme, build_bin_layout
from polygam.errors import DataError
from polygam.losses import derivatives, hessian_diag, link_apply, loss_eval

from conftest import make_dataset
from oracles import (
    finite_diff_grad,
    finite_diff_second,
    one_hot,
    reference_derivatives,
    reference_hessian_diag,
    reference_link,
    reference_loss_eval,
    reference_side,
    softmax_by_row_max,
)


def test_link_identity_for_regression():
    F = np.array([[1.5], [-2.0]])
    assert np.array_equal(link_apply("regression", F), F)


def test_link_binary_zero_is_half():
    assert link_apply("binary", np.array([[0.0]]))[0, 0] == 0.5


def test_link_softmax_symmetric():
    p = link_apply("multiclass", np.array([[0.0, 0.0]]))
    assert p.tolist() == [[0.5, 0.5]]


def test_link_softmax_log2():
    p = link_apply("multiclass", np.array([[math.log(2.0), 0.0]]))
    assert p[0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)


@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2**16))
def test_softmax_equals_row_max_form_bit_for_bit(J, n, seed):
    # the running max over columns must give the same bits as F.max(axis=1),
    # signed zeros, overflow-sized entries and NaN included
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 745.0, -745.0, np.nan, 1e-300])
    F = np.where(rng.random((n, J)) < 0.3, rng.choice(specials, (n, J)),
                 rng.normal(scale=5.0, size=(n, J)))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = link_apply("multiclass", F), softmax_by_row_max(F)
    assert got.tobytes() == want.tobytes()


def test_link_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    F = rng.normal(scale=5.0, size=(200, 4))
    p = link_apply("multiclass", F)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


def test_link_stable_at_extreme_scores():
    p = link_apply("binary", np.array([[1000.0], [-1000.0]]))
    assert np.isfinite(p).all() and p[0, 0] == 1.0 and p[1, 0] == 0.0
    q = link_apply("multiclass", np.array([[800.0, -800.0, 0.0]]))
    assert np.isfinite(q).all() and q[0, 0] == pytest.approx(1.0)


def test_loss_regression_mse():
    y = np.array([1.0, 3.0])
    yhat = np.array([[1.0], [1.0]])
    assert loss_eval("regression", y, yhat) == 2.0


def test_loss_multiclass_ln2():
    y = np.array([0])
    F = np.array([[0.0, 0.0]])
    assert loss_eval("multiclass", y, F) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_binary_point_nine():
    # scores chosen so sigmoid gives exactly 0.9
    F = np.array([[math.log(9.0)]])
    y = np.array([1])
    assert loss_eval("binary", y, F) == pytest.approx(-math.log(0.9), rel=1e-12)


def test_loss_clamps_probabilities():
    y = np.array([1])
    val = loss_eval("binary", y, np.array([[-10000.0]]))
    assert np.isfinite(val)


def test_derivatives_regression_example():
    b = derivatives("regression", np.array([1.0]), np.array([[0.0]]))
    assert b.g[0, 0] == -2.0 and b.h[0, 0] == 2.0


def test_derivatives_multiclass_example():
    b = derivatives("multiclass", np.array([0]), np.array([[0.0, 0.0]]))
    assert b.g[0].tolist() == [-0.5, 0.5]
    assert b.h[0].tolist() == [0.25, 0.25]


def test_derivatives_binary_example():
    b = derivatives("binary", np.array([0]), np.array([[0.0]]))
    assert b.g[0, 0] == 0.5 and b.h[0, 0] == 0.25


def test_multiclass_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 3, size=100)
    F = rng.normal(size=(100, 3))
    b = derivatives("multiclass", y, F)
    assert np.abs(b.g.sum(axis=1)).max() <= 1e-12


def test_hessian_nonnegative_all_tasks():
    rng = np.random.default_rng(2)
    for task, y, F in (
        ("regression", rng.normal(size=50), rng.normal(size=(50, 1))),
        ("binary", rng.integers(0, 2, 50), rng.normal(scale=4, size=(50, 1))),
        ("multiclass", rng.integers(0, 4, 50), rng.normal(scale=4, size=(50, 4))),
    ):
        b = derivatives(task, y, F)
        assert (b.h >= 0).all()
        assert np.array_equal(hessian_diag(task, F), b.h)


@pytest.mark.parametrize("task,n_outputs", [("regression", 1), ("binary", 1), ("multiclass", 3)])
def test_derivatives_match_finite_differences(task, n_outputs):
    rng = np.random.default_rng(3)
    for _ in range(20):
        if task == "regression":
            y = rng.normal(size=1)
        elif task == "binary":
            y = rng.integers(0, 2, size=1)
        else:
            y = rng.integers(0, 3, size=1)
        F = rng.uniform(-4.0, 4.0, size=(1, n_outputs))

        def fn(flat, task=task, y=y, n_outputs=n_outputs):
            return loss_eval(task, y, flat.reshape(1, n_outputs))

        b = derivatives(task, y, F)
        fd_g = finite_diff_grad(fn, F.ravel())
        fd_h = finite_diff_second(fn, F.ravel())
        assert np.abs(fd_g - b.g.ravel()).max() <= 1e-5 * max(1.0, np.abs(b.g).max())
        assert np.abs(fd_h - b.h.ravel()).max() <= 1e-5 * max(1.0, np.abs(b.h).max())


def test_one_hot_round_trip():
    y = np.array([0, 2, 1, 2])
    oh = one_hot(y, 3)
    assert oh.shape == (4, 3)
    assert np.array_equal(oh.argmax(axis=1), y)
    assert np.array_equal(oh.sum(axis=1), np.ones(4))


SPECIALS = np.array([np.inf, -np.inf, 1000.0, -1000.0, 0.0, -0.0, np.nan, 745.0, -745.0])


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@given(st.sampled_from(["regression", "binary", "multiclass"]), st.integers(2, 12),
       st.integers(1, 40), st.sampled_from("CF"), st.integers(0, 2**16))
def test_kernels_equal_their_plain_forms_bit_for_bit(task, J, n, order, seed):
    # the lean kernels against the masked sigmoid, p - one_hot and
    # clip-then-gather, on scores in either memory order with infinities,
    # signed zeros, overflow-sized entries and NaN; binary labels take
    # fractions in [0, 1] too
    rng = np.random.default_rng(seed)
    J = J if task == "multiclass" else 1
    F = np.where(rng.random((n, J)) < 0.3, rng.choice(SPECIALS, (n, J)),
                 rng.normal(scale=5.0, size=(n, J)))
    F = np.asarray(F, order=order)
    if task == "regression":
        y = rng.normal(size=n)
    elif task == "binary":
        y = np.where(rng.random(n) < 0.5, rng.integers(0, 2, n), rng.random(n))
    else:
        y = rng.integers(0, J, n)
    with np.errstate(all="ignore"):
        p = link_apply(task, F)
        assert bits(p) == bits(reference_link(task, F))
        assert bits(hessian_diag(task, F)) == bits(reference_hessian_diag(task, F))
        g, h = reference_derivatives(task, y, F)
        batch = derivatives(task, y, F)
        assert bits(batch.g) == bits(g) and bits(batch.h) == bits(h)
        assert bits(loss_eval(task, y, F)) == bits(reference_loss_eval(task, y, F))


def test_softmax_layouts_agree_below_eight_outputs():
    # numpy sums a contiguous row of fewer than 8 values in order, as it does
    # a column-major one, so the trainer keeps fewer scores column-major and
    # more row-major, where the two sums can differ in the last bit
    rng = np.random.default_rng(5)
    for J in range(2, 13):
        F = rng.normal(scale=5.0, size=(300, J))
        same = (link_apply("multiclass", F).tobytes()
                == link_apply("multiclass", np.asfortranarray(F)).tobytes())
        assert same or J >= 8
        assert _start_scores(np.zeros(J), 300).flags.f_contiguous == (J < 8)


@pytest.mark.parametrize("task,y,F", [
    ("multiclass", [0, -1], np.zeros((2, 3))),  # would score as the last class
    ("multiclass", [0, 2.7], np.zeros((2, 3))),  # would score as class 2
    ("multiclass", [0, 3], np.zeros((2, 3))),  # y = J
    ("multiclass", [0, np.nan], np.zeros((2, 3))),
    ("binary", [0, 1], np.zeros((1, 1))),  # would broadcast to two rows
    ("binary", [0, 1.5], np.zeros((2, 1))),
    ("binary", [-0.5, 1], np.zeros((2, 1))),
    ("binary", [np.nan, 1], np.zeros((2, 1))),
    ("regression", [0.0, 1.0, 2.0], np.zeros((2, 1))),
    ("regression", [[0.0], [1.0]], np.zeros((2, 1))),  # would broadcast to (2, 2)
])
def test_bad_labels_are_refused(task, y, F):
    y = np.array(y)
    with pytest.raises(DataError):
        loss_eval(task, y, F)
    with pytest.raises(DataError):
        derivatives(task, y, F)


def test_whole_float_class_labels_are_accepted():
    F = np.random.default_rng(6).normal(size=(5, 3))
    y = np.array([0, 1, 2, 2, 0])
    assert loss_eval("multiclass", y.astype(float), F) == loss_eval("multiclass", y, F)
    assert derivatives("multiclass", y.astype(float), F).g.tobytes() == \
        derivatives("multiclass", y, F).g.tobytes()


@pytest.mark.parametrize("order", "CF")
def test_side_select_sends_the_threshold_row_right(order):
    # a degree-0 split at a value some rows hold exactly: x == u (s == 0) and
    # x > u take gamma_right, x < u gamma_left, with the bits of np.where
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 4.0, size=(60, 1))
    ds = make_dataset(X, X[:, 0], names=["x"])
    layout = build_bin_layout(ds, SplitScheme(8, 2))
    u = float(layout[0].fine_edges[3])
    X[::5, 0] = u
    X[1, 0], X[2, 0] = np.nextafter(u, -np.inf), np.nextafter(u, np.inf)
    F = np.zeros((60, 1), order=order)
    F_valid = np.zeros((60, 1), order=order)
    rec = LogRecord(1, 0, "x", 0, "split", u, -0.75, 1.25, 1.0)
    for x, scores in ((X[:, 0], F), (X[::-1, 0], F_valid)):
        _add_update(rec, u, 0.1, x, scores[:, 0], np.empty(60), np.empty(60))
    x = X[:, 0]
    assert (F[x == u, 0] == 0.1 * 1.25).all() and F[1, 0] == 0.1 * -0.75 and F[2, 0] == 0.1 * 1.25
    assert F[:, 0].tobytes() == (0.1 * reference_side(x - u, -0.75, 1.25) * (x - u) ** 0).tobytes()
    assert F_valid[::-1, 0].tobytes() == F[:, 0].tobytes()
