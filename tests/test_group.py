import warnings

import numpy as np
import pytest
import scipy.linalg

from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.checks import run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.group import EElement, GroupElement, _adjoint, adE, e_mul, exp_b
from poissonlie.linalg import expm
from references import (adE_fd, change_of_basis, e_identity, e_inv, identity_element, ref_adjoint,
                        sample_e_element, sample_e_elements, sample_group_matrices)


def sample_group_element(mp, rng) -> GroupElement:
    """One random element, drawn as the first of a stack of one."""
    return GroupElement(mp, sample_group_matrices(mp, rng, 1)[0])


@pytest.fixture(scope="module")
def e11():
    return su11()


def test_exp_b_at_zero_is_identity(e11):
    a = exp_b(e11.mp, np.array([0.7]), 0.0)
    assert np.allclose(a.matrix, np.eye(2), atol=1e-15)


def test_exp_b_diagonal_closed_form(e11):
    a = exp_b(e11.mp, np.array([np.pi / 4]), 1.0)
    expect = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    assert np.max(np.abs(a.matrix - expect)) < 1e-12


def test_one_parameter_property(e11):
    x = np.array([0.37])
    lhs = exp_b(e11.mp, x, 0.4).matrix @ exp_b(e11.mp, x, 0.9).matrix
    rhs = exp_b(e11.mp, x, 1.3).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_ad_identity_and_functoriality(e11):
    mp = e11.mp
    assert np.allclose(identity_element(mp).ad, np.eye(3), atol=1e-12)
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = sample_group_element(mp, rng)
        b = sample_group_element(mp, rng)
        diff = (a @ b).ad - a.ad @ b.ad
        assert np.max(np.abs(diff)) <= 1e-9


def test_coad_rotation_acts_as_double_phase(e11):
    # Ad* of the rotation by phi restricted to the annihilator is e^{2 i phi}
    mp = e11.mp
    phi = 0.6
    k = exp_b(mp, np.array([1.0]), phi).coad_b0
    # on z = c_2 + i c_a multiplication by e^{2 i phi} sends
    # (c_a, c_2) -> (c_a cos + c_2 sin, -c_a sin + c_2 cos)
    expect = np.array([[np.cos(2 * phi), np.sin(2 * phi)],
                       [-np.sin(2 * phi), np.cos(2 * phi)]])
    assert np.max(np.abs(k - expect)) < 1e-12


def test_group_element_outside_b_rejected(e11):
    from poissonlie.group import GroupElement

    bad = GroupElement(e11.mp, np.array([[np.cosh(0.5), np.sinh(0.5)],
                                         [np.sinh(0.5), np.cosh(0.5)]]))
    with pytest.raises(ValueError):
        bad.ad


def test_e_mul_planar_example(e11):
    # (1, phi=pi/2) . (1, 0) = (0, pi/2) because e^{2 i (pi/2)} = -1
    mp = e11.mp
    g = EElement(mp, np.array([0.0, 1.0]), exp_b(mp, np.array([np.pi / 2]), 1.0))
    h = EElement(mp, np.array([0.0, 1.0]), identity_element(mp))
    prod = e_mul(g, h)
    assert np.max(np.abs(prod.v)) < 1e-12
    assert np.max(np.abs(prod.a.matrix - exp_b(mp, np.array([np.pi / 2]), 1.0).matrix)) < 1e-12


def test_two_sided_inverse(e11):
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = sample_e_element(e11.mp, rng)
        for prod in (e_mul(g, e_inv(g)), e_mul(e_inv(g), g)):
            assert np.max(np.abs(prod.v)) <= 1e-9
            assert np.max(np.abs(prod.a.matrix - np.eye(2))) <= 1e-9


def test_associativity_sampled(e11):
    rng = np.random.default_rng(9)
    for _ in range(100):
        g, h, k = (sample_e_element(e11.mp, rng) for _ in range(3))
        p1 = e_mul(e_mul(g, h), k)
        p2 = e_mul(g, e_mul(h, k))
        assert np.max(np.abs(p1.v - p2.v)) <= 1e-9
        assert np.max(np.abs(p1.a.matrix - p2.a.matrix)) <= 1e-9


def test_adE_identity(e11):
    assert np.allclose(adE(e_identity(e11.mp)), np.eye(3), atol=1e-12)


def test_adE_functoriality(e11):
    rng = np.random.default_rng(10)
    for _ in range(50):
        g = sample_e_element(e11.mp, rng)
        h = sample_e_element(e11.mp, rng)
        diff = adE(e_mul(g, h)) - adE(g) @ adE(h)
        assert np.max(np.abs(diff)) <= 1e-9


@pytest.mark.parametrize("name,samples", [("su11", 30), ("su21", 15)])
def test_adE_matches_finite_difference(name, samples):
    entry = su11() if name == "su11" else supq1(2)
    rng = np.random.default_rng(11)
    for _ in range(samples):
        g = sample_e_element(entry.mp, rng)
        assert np.max(np.abs(adE(g) - adE_fd(g))) <= 1e-6


def test_coad_preserves_annihilator(e11):
    # the forbidden block of Ad* (annihilator -> b-part) vanishes
    mp = e11.mp
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = sample_group_element(mp, rng)
        coad = ref_adjoint(mp, np.linalg.inv(a.matrix)).T   # Ad*_a on dual g-coordinates
        psi_img = coad @ change_of_basis(mp).psi   # columns: Ad*_a psi^i in dual coords
        leak = mp.decomp.parts["b"] @ psi_img  # pair against b-basis vectors
        assert np.max(np.abs(leak)) <= 1e-9


def test_e_element_validates(e11):
    with pytest.raises(ValueError):
        EElement(e11.mp, np.array([1.0]), identity_element(e11.mp))
    with pytest.raises(ValueError):
        EElement(e11.mp, np.array([np.inf, 0.0]), identity_element(e11.mp))


def test_e_element_json_round_trip(e11):
    # the cocycle's witness pair is the call's drawn points at its worst sample
    samples = 20
    details = run_check("cocycle", e11, samples, 77, DEFAULT_TOL)["details"]
    drawn = sample_e_elements(e11.mp, np.random.default_rng(77), 2 * samples)
    for j, name in enumerate("gh"):
        doc = details[name]
        mat = np.asarray(doc["a"]["re"], dtype=float) + 1j * np.asarray(doc["a"]["im"], dtype=float)
        back = EElement(e11.mp, np.asarray(doc["v"], dtype=float), GroupElement(e11.mp, mat))
        i = 2 * details["worst_sample"] + j
        assert np.array_equal(back.v, drawn.v[i])
        assert np.array_equal(back.a.matrix, drawn.a.matrix[i])


# -- the stacked expm, with scipy's expm as the oracle --------------------------


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
@pytest.mark.parametrize("scale", [1.0, 5.0, 20.0])
def test_stacked_expm_matches_scipy(name, scale):
    mp = get_entry(name).mp
    x = mp.b_matrix_of(np.random.default_rng(5).uniform(-scale, scale, (200, mp.dim_b)))
    if scale == 20.0:   # the squaring path is taken
        assert np.abs(x).sum(axis=-2).max() > 2 * 5.37
    ref = np.array([scipy.linalg.expm(m) for m in x])
    rel = np.linalg.norm(expm(x) - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert rel.max() <= 1e-14
    assert np.array_equal(expm(x[7]), expm(x)[7])     # one matrix runs the same code


def test_expm_of_zero_is_identity_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expm(np.zeros((3, 4, 4), dtype=complex))
    assert np.array_equal(out, np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_expm_nan_factor_is_rejected_with_its_index():
    mp = get_entry("su21").mp
    factors = np.random.default_rng(6).uniform(-1.0, 1.0, (5, mp.dim_b))
    factors[2, 0] = np.nan
    mats = expm(mp.b_matrix_of(factors))
    assert np.all(np.isfinite(np.delete(mats, 2, axis=0)))
    with pytest.raises(ValueError, match=r"element 2 of the stack .*\(\|det\| nan\)"):
        GroupElement(mp, mats)
    with pytest.raises(ValueError, match=r"element 2 of the stack .*\(residual nan\)"):
        _adjoint(mp, mats, np.linalg.inv(mats))
