import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlie.linalg import (BasedSpace, Bivector, Rng, SpaceMismatchError,
                               Tensor2, Vec, finite_diff, pair_tensor,
                               sample_vec, wedge, worst)

V3 = BasedSpace.make(["e1", "e2", "e3"])


def vec(*coords):
    return Vec(V3, np.array(coords, dtype=float))


def test_based_space_validates():
    with pytest.raises(ValueError):
        BasedSpace(2, ("a",))
    with pytest.raises(ValueError):
        BasedSpace(2, ("a", "a"))
    with pytest.raises(ValueError):
        BasedSpace(0, ())


def test_wedge_self_is_zero():
    w = wedge(vec(1, 0, 0), vec(1, 0, 0))
    assert np.array_equal(w.coeffs, np.zeros((3, 3)))


def test_wedge_pairing_convention():
    w = wedge(vec(1, 0, 0), vec(0, 1, 0))
    dual = BasedSpace.make(["f1", "f2", "f3"])
    f12 = np.zeros((3, 3))
    f12[0, 1] = 1.0
    assert pair_tensor(w, Tensor2(dual, f12)) == 1.0
    f21 = np.zeros((3, 3))
    f21[1, 0] = 1.0
    assert pair_tensor(w, Tensor2(dual, f21)) == -1.0


def test_pair_tensor_zero_and_linearity():
    w = wedge(vec(1, 2, 0), vec(0, 1, 3))
    zero = Tensor2(V3, np.zeros((3, 3)))
    assert pair_tensor(Bivector(V3, np.zeros((3, 3))), zero) == 0.0
    f = Tensor2(V3, np.arange(9.0).reshape(3, 3))
    assert pair_tensor(Bivector(V3, 2 * w.coeffs), f) == pytest.approx(
        2 * pair_tensor(w, f), abs=1e-14)


def test_space_mismatch_raises():
    other = BasedSpace.make(["a", "b", "c"])
    with pytest.raises(SpaceMismatchError):
        wedge(vec(1, 0, 0), Vec(other, np.zeros(3)))
    two = BasedSpace.make(["x", "y"])
    with pytest.raises(SpaceMismatchError):
        pair_tensor(Bivector(V3, np.zeros((3, 3))), Tensor2(two, np.zeros((2, 2))))


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_wedge_antisymmetry_property(xc, yc):
    x, y = vec(*xc), vec(*yc)
    assert np.array_equal(wedge(x, y).coeffs, -wedge(y, x).coeffs)
    assert np.max(np.abs(wedge(x, y).coeffs + wedge(x, y).coeffs.T)) == 0.0


def test_bivector_antisymmetrized_at_construction():
    b = Bivector(V3, np.arange(9.0).reshape(3, 3))
    assert np.max(np.abs(b.coeffs + b.coeffs.T)) == 0.0


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


def test_rng_determinism():
    a = sample_vec(Rng(1234), V3, 1.0)
    b = sample_vec(Rng(1234), V3, 1.0)
    assert np.array_equal(a.coords, b.coords)


def test_rng_streams_bit_identical():
    r1, r2 = Rng(99), Rng(99)
    s1 = [r1.uniform(-1, 1) for _ in range(100)]
    s2 = [r2.uniform(-1, 1) for _ in range(100)]
    assert s1 == s2


def test_sample_vec_radius_zero():
    v = sample_vec(Rng(0), V3, 0.0)
    assert np.array_equal(v.coords, np.zeros(3))


def test_sample_vec_mean_near_zero():
    rng = Rng(2024)
    total = np.zeros(3)
    n = 10_000
    for _ in range(n):
        total += sample_vec(rng, V3, 1.0).coords
    assert np.max(np.abs(total / n)) < 0.05


def test_worst_propagates_nan():
    assert worst() == 0.0
    assert worst(1e-3, 2, np.float64(0.5)) == 2.0
    assert math.isnan(worst(0.0, float("nan"), 1.0))
    assert worst(0.0, float("inf")) == float("inf")
