import numpy as np
import pytest

from poissonlie.catalog import su11, supq1
from poissonlie.checks import run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.group import EElement, exp_b
from poissonlie.poisson import anchor_trig, eta, eta0, eta_b
from references import (BaseFn, LinearFn, TrigPoly, e2_plus_brackets, e_identity,
                        eta_alternative, identity_element, poisson_bracket, sample_e_element)


@pytest.fixture(scope="module")
def e11():
    return su11()


def test_eta_vanishes_at_identity(e11):
    assert np.max(np.abs(eta(e11.mp, e_identity(e11.mp)))) <= 1e-12


def test_eta_at_pure_fibre_point(e11):
    # at a = e only the quadratic factor survives: (1/2)<v,[y_i,y_j]> psi^i ^ psi^j
    mp = e11.mp
    v = np.array([0.7, -1.3])
    g = EElement(mp, v, identity_element(mp))
    assert np.max(np.abs(eta_b(mp, g))) <= 1e-12
    full = eta(mp, g)
    # only nonzero y-bracket is [ya, y2] = 2 y2, so coefficient <v, 2 y2> = 2 v_2
    expect = np.zeros((3, 3))
    expect[0, 1] = 2 * v[1]
    expect[1, 0] = -2 * v[1]
    assert np.max(np.abs(full - expect)) <= 1e-12


def test_eta_b_half_turn_value(e11):
    # at (0, phi = pi/2): sin(pi) = 0, 1 - cos(pi) = 2, Ad* rotates by e^{i pi}
    mp = e11.mp
    g = EElement(mp, np.zeros(2), exp_b(mp, np.array([np.pi / 2]), 1.0))
    coeffs = eta_b(mp, g)
    expect = np.zeros((3, 3))
    expect[2, 1] = 2.0   # 2 J ^ psi_2
    expect[1, 2] = -2.0
    assert np.max(np.abs(coeffs - expect)) <= 1e-12


def test_eta_alternative_identities(e11):
    mp = e11.mp
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = sample_e_element(mp, rng)
        assert np.max(np.abs(eta0(mp, g) - eta_alternative(mp, g))) <= 1e-9
    # at a = identity the second term vanishes
    v = np.array([1.0, 2.0])
    g = EElement(mp, v, identity_element(mp))
    assert np.max(np.abs(eta0(mp, g) - eta_alternative(mp, g))) <= 1e-12
    # at v = 0 both terms vanish
    g0 = EElement(mp, np.zeros(2), exp_b(mp, np.array([0.8]), 1.0))
    assert np.max(np.abs(eta_alternative(mp, g0))) <= 1e-12


def test_eta_has_no_b_wedge_b_component(e11):
    rng = np.random.default_rng(32)
    k = e11.mp.dim_c
    for _ in range(100):
        g = sample_e_element(e11.mp, rng)
        assert np.max(np.abs(eta(e11.mp, g)[k:, k:])) <= 1e-12


def test_cocycle_identity_at_group_identity(e11):
    mp = e11.mp
    g = e_identity(mp)
    h = sample_e_element(mp, np.random.default_rng(33))
    from poissonlie.group import adE, e_mul

    a = adE(g)
    resid = np.max(np.abs(eta(mp, e_mul(g, h)) - eta(mp, g) - a @ eta(mp, h) @ a.T))
    assert resid <= 1e-12


def test_verify_cocycle_passes(e11):
    rep = run_check("cocycle", e11.mp, 1000, 42, DEFAULT_TOL)
    assert rep["max_residual"] <= 1e-9


def test_verify_cocycle_negative_control(e11):
    rep = run_check("cocycle", e11.mp, 20, 42, DEFAULT_TOL, corrupt="eta_b_sign")
    assert rep["details"]["eta_b_sign"] == -1.0
    assert rep["max_residual"] > 1e-3


def test_verify_cocycle_rejects_zero_samples(e11):
    with pytest.raises(ValueError):
        run_check("cocycle", e11.mp, 0, 1, DEFAULT_TOL)


def test_verify_cocycle_record_schema(e11):
    rep = run_check("cocycle", e11.mp, 5, 6, DEFAULT_TOL)
    assert rep["pair"] == "su11"
    assert rep["seed"] == 6
    assert set(rep["details"]) == {"cocycle", "eta_b_sign", "worst_sample", "worst_part",
                                   "g", "h"}


def test_anchor_trig_values(e11):
    assert TrigPoly(anchor_trig(e11.mp, [1, 0])).residual(TrigPoly.sin(2)) <= 1e-12
    expect = TrigPoly({0: 1.0}) - TrigPoly.cos(2)
    assert TrigPoly(anchor_trig(e11.mp, [0, 1])).residual(expect) <= 1e-12


def test_poisson_bracket_linear_linear(e11):
    out = poisson_bracket(e11.mp, LinearFn.make([1, 0]), LinearFn.make([0, 1]))
    assert np.allclose(out.y, [0.0, 2.0], atol=1e-12)


def test_poisson_bracket_linear_base_planar_values(e11):
    mp = e11.mp
    e_phi = BaseFn(TrigPoly.mode(1))
    br_a = poisson_bracket(mp, LinearFn.make([1, 0]), e_phi).f
    expect_a = TrigPoly({3: 0.5, -1: -0.5})     # i sin(2 phi) e^{i phi}
    assert br_a.residual(expect_a) <= 1e-12
    br_2 = poisson_bracket(mp, LinearFn.make([0, 1]), e_phi).f
    expect_2 = TrigPoly({1: 1j, 3: -0.5j, -1: -0.5j})  # i (1 - cos 2 phi) e^{i phi}
    assert br_2.residual(expect_2) <= 1e-12


def test_poisson_bracket_antisymmetry_and_base_base(e11):
    mp = e11.mp
    f = BaseFn(TrigPoly({1: 1.0, -2: 0.5}))
    lin = LinearFn.make([0.3, -1.1])
    fwd = poisson_bracket(mp, lin, f).f
    bwd = poisson_bracket(mp, f, lin).f
    assert (fwd + bwd).max_abs() <= 1e-12
    assert poisson_bracket(mp, f, f).f.max_abs() == 0.0


def test_poisson_bracket_jacobi_on_function_classes(e11):
    # {y1, {y2, f}} - {y2, {y1, f}} = {[y1,y2], f} on trig polynomials
    mp = e11.mp
    rng = np.random.default_rng(35)
    for _ in range(25):
        y1 = LinearFn.make(rng.uniform(-1, 1, 2))
        y2 = LinearFn.make(rng.uniform(-1, 1, 2))
        f = BaseFn(TrigPoly({int(rng.integers(-3, 4)): complex(rng.uniform(-1, 1))}))
        lhs = poisson_bracket(mp, y1, poisson_bracket(mp, y2, f)).f \
            - poisson_bracket(mp, y2, poisson_bracket(mp, y1, f)).f
        rhs = poisson_bracket(mp, poisson_bracket(mp, y1, y2), f).f
        assert lhs.residual(rhs) <= 1e-9


def test_poisson_bracket_unsupported_class(e11):
    with pytest.raises(ValueError):
        poisson_bracket(e11.mp, "not a function", LinearFn.make([1, 0]))


def test_base_functions_need_circle(e11):
    entry = supq1(2)
    with pytest.raises(ValueError):
        poisson_bracket(entry.mp, LinearFn.make([1] + [0] * 3),
                        BaseFn(TrigPoly.mode(1)))
    with pytest.raises(ValueError):
        e2_plus_brackets(entry.mp)


def test_e2_plus_table(e11):
    table = e2_plus_brackets(e11.mp)
    assert np.allclose(table["lin_lin"].y, [0, 2], atol=1e-12)
    # 2 i sin(theta) e^{i theta} = e^{2 i theta} - 1
    assert table["a_base_theta"].residual(TrigPoly({2: 1.0, 0: -1.0})) <= 1e-12
    # 2 i (1 - cos theta) e^{i theta} = 2 i e^{i theta} - i e^{2 i theta} - i
    assert table["two_base_theta"].residual(
        TrigPoly({1: 2j, 2: -1j, 0: -1j})) <= 1e-12
    assert table["omega"] == -2.0
    assert table["relabel"]["V1"] == ("-", "ya")


def test_chain_rule_consistency(e11):
    # {f, e^{2 i phi}} = 2 e^{i phi} {f, e^{i phi}} as trig polynomials
    mp = e11.mp
    lin = LinearFn.make([0.8, -0.4])
    lhs = poisson_bracket(mp, lin, BaseFn(TrigPoly.mode(2))).f
    rhs = 2.0 * (TrigPoly.mode(1) * poisson_bracket(mp, lin, BaseFn(TrigPoly.mode(1))).f)
    assert lhs.residual(rhs) <= 1e-12


def test_cocycle_su21_su31():
    for p in (2, 3):
        entry = supq1(p)
        rep = run_check("cocycle", entry.mp, 200, 42, DEFAULT_TOL)
        assert rep["max_residual"] <= 1e-9, rep
