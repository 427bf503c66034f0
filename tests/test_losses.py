"""Link functions, losses, and analytic derivatives against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.losses import _softmax, derivatives, hessian_diag, link_apply, loss_eval, one_hot

from oracles import finite_diff_grad, finite_diff_second


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


def softmax_by_row_max(F):
    """The softmax as it was written with the row max taken along rows."""
    z = F - F.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


@given(st.integers(2, 12), st.integers(1, 40), st.integers(0, 2**16))
def test_softmax_equals_row_max_form_bit_for_bit(J, n, seed):
    # the running max over columns must give the same bits as F.max(axis=1),
    # signed zeros, overflow-sized entries and NaN included
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, 745.0, -745.0, np.nan, 1e-300])
    F = np.where(rng.random((n, J)) < 0.3, rng.choice(specials, (n, J)),
                 rng.normal(scale=5.0, size=(n, J)))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = _softmax(F), softmax_by_row_max(F)
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


@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
def test_given_link_gives_the_same_bits(task):
    rng = np.random.default_rng(4)
    J = 3 if task == "multiclass" else 1
    F = rng.normal(scale=3.0, size=(50, J))
    y = rng.integers(0, max(J, 2), 50) if task != "regression" else rng.normal(size=50)
    p = link_apply(task, F)
    assert loss_eval(task, y, F, p) == loss_eval(task, y, F)
    with_p, without = derivatives(task, y, F, p), derivatives(task, y, F)
    assert with_p.g.tobytes() == without.g.tobytes()
    assert with_p.h.tobytes() == without.h.tobytes()
