import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlie.lie import LieAlgebra
from poissonlie.linalg import best_sign, finite_diff, worst


def wedge(x, y):
    """x ^ y = x (x) y - y (x) x as its coefficient matrix."""
    return np.outer(x, y) - np.outer(y, x)


def test_based_space_validates():
    # an algebra's labels name its basis: one per dimension, distinct, at least one
    with pytest.raises(ValueError, match="shape"):
        LieAlgebra(("a",), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="labels must be unique"):
        LieAlgebra(("a", "a"), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="dim must be positive"):
        LieAlgebra((), np.zeros((0, 0, 0)))


def test_wedge_self_is_zero():
    w = wedge([1, 0, 0], [1, 0, 0])
    assert np.array_equal(w, np.zeros((3, 3)))


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_wedge_antisymmetry_property(xc, yc):
    assert np.array_equal(wedge(xc, yc), -wedge(yc, xc))
    assert np.max(np.abs(wedge(xc, yc) + wedge(xc, yc).T)) == 0.0


def test_finite_diff_linear_and_even():
    d = finite_diff(lambda t: np.array([t, 0.0]), 0.0, 1e-4)
    assert np.max(np.abs(d - [1, 0])) < 1e-12
    d = finite_diff(lambda t: np.array([t * t]), 0.0, 1e-4)
    assert abs(d[0]) < 1e-12


@settings(max_examples=25)
@given(st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       st.floats(-1, 1))
def test_finite_diff_cubic_property(coeffs, t0):
    a, b, c, d = coeffs

    def curve(t):
        return np.array([a + b * t + c * t * t + d * t ** 3])

    expect = b + 2 * c * t0 + 3 * d * t0 * t0
    got = finite_diff(curve, t0, 1e-4)[0]
    assert abs(got - expect) < 1e-8


def test_finite_diff_matrix_exponential_oracle():
    # closed-form derivative of exp(tX) against a truncated series
    x = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def curve(t):
        import scipy.linalg

        return scipy.linalg.expm(t * x)[:, 0]

    d = finite_diff(curve, 0.3, 1e-4)
    import scipy.linalg

    expect = (x @ scipy.linalg.expm(0.3 * x))[:, 0]
    assert np.max(np.abs(d - expect)) < 1e-10


def test_worst_propagates_nan():
    assert worst() == 0.0
    assert worst(1e-3, 2, np.float64(0.5)) == 2.0
    assert math.isnan(worst(0.0, float("nan"), 1.0))
    assert worst(0.0, float("inf")) == float("inf")


def test_best_sign_matches_up_to_global_sign():
    x = np.arange(6.0).reshape(2, 3) - 2.5
    assert best_sign(x, x) == (1.0, 0.0)
    assert best_sign(-x, x) == (-1.0, 0.0)
    sign, resid = best_sign(-x + 1e-3, x)
    assert sign == -1.0 and resid == pytest.approx(1e-3, abs=1e-15)
    assert best_sign(np.zeros(3), np.ones(3)) == (1.0, 1.0)    # a tie keeps +1
