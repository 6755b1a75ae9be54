import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlie.catalog import su11
from poissonlie.quantize import (Coproduct, CrossedAlgebra, CrossedElement,
                                 SymElement, poisson_sym, q_plain, qh,
                                 qh_inverse_units, semiclassical_pair_residuals,
                                 verify_semiclassical)
from poissonlie.trig import TrigPoly, fit_trig


@pytest.fixture(scope="module")
def alg():
    return CrossedAlgebra(su11().mp)


def test_trigpoly_arithmetic():
    f = TrigPoly.cos(2)
    g = TrigPoly.sin(2)
    # cos^2 + sin^2 = 1
    assert ((f * f) + (g * g)).residual(TrigPoly.const(1.0)) <= 1e-15
    assert f.derivative().residual((-2.0) * TrigPoly.sin(2)) <= 1e-15


@settings(max_examples=30)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_trigpoly_mode_product(n, m):
    assert (TrigPoly.mode(n) * TrigPoly.mode(m)).residual(TrigPoly.mode(n + m)) == 0.0


def test_fit_trig_exact():
    samples = np.array([np.cos(2 * (2 * np.pi * k / 16)) for k in range(16)],
                       dtype=complex)
    assert fit_trig(samples, 4).residual(TrigPoly.cos(2)) <= 1e-12
    with pytest.raises(ValueError):
        fit_trig(samples, 8)


def test_commutator_of_generators(alg):
    comm = alg.t_a().commutator(alg.t_2())
    expect = alg.monomial(0, 1, 0, coeff=2.0)
    assert comm.residual(expect) <= 1e-12


def test_commutator_generator_with_mode(alg):
    # [t_a, e^{in phi}] = (n/2)(e^{i(n+2) phi} - e^{i(n-2) phi})
    for n in (-3, 1, 4):
        comm = alg.t_a().commutator(alg.monomial(0, 0, n))
        expect = alg.monomial(0, 0, n + 2, coeff=n / 2.0).add(
            alg.monomial(0, 0, n - 2, coeff=-n / 2.0))
        assert comm.residual(expect) <= 1e-12


def test_unit_element(alg):
    x = alg.monomial(2, 1, -3, coeff=1.5)
    assert alg.one().mul(x).residual(x) == 0.0
    assert x.mul(alg.one()).residual(x) == 0.0


def test_rewrite_t2_ta(alg):
    # t_2 t_a = t_a t_2 - 2 t_2
    prod = alg.t_2().mul(alg.t_a())
    expect = alg.monomial(1, 1, 0).add(alg.monomial(0, 1, 0, coeff=-2.0))
    assert prod.residual(expect) <= 1e-12


def test_associativity_sampled(alg):
    rng = np.random.default_rng(0)

    def rand_elem():
        terms = {}
        for _ in range(3):
            key = (int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                   int(rng.integers(-3, 4)))
            terms[key] = {0: complex(rng.standard_normal(), rng.standard_normal())}
        return CrossedElement(alg, terms)

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        p1 = a.mul(b).mul(c)
        p2 = a.mul(b.mul(c))
        scale = 1.0 + max(p1.max_abs(), p2.max_abs())
        assert p1.residual(p2) / scale <= 1e-9


def test_qh_examples(alg):
    assert qh(alg, SymElement({(1, 0, 0): 1.0})).terms == {(1, 0, 0): {1: 1.0}}
    assert qh(alg, SymElement({(1, 1, 0): 1.0})).terms == {(1, 1, 0): {2: 1.0}}
    assert qh(alg, SymElement({(0, 0, 1): 1.0})).terms == {(0, 0, 1): {0: 1.0}}


def test_qh_inverse_units(alg):
    x = qh(alg, SymElement({(2, 1, 0): 3.0, (0, 0, 2): 1.0}))
    units = qh_inverse_units(x)
    assert units[(2, 1, 0)] == {0: 3.0}
    assert units[(0, 0, 2)] == {0: 1.0}
    with pytest.raises(ValueError):
        qh_inverse_units(alg.monomial(2, 0, 0))  # h-free degree-2 term


def test_poisson_sym_generators(alg):
    s_a = SymElement({(1, 0, 0): 1.0})
    s_2 = SymElement({(0, 1, 0): 1.0})
    out = poisson_sym(alg, s_a, s_2)
    assert out.residual(SymElement({(0, 1, 0): 2.0})) <= 1e-12
    f = SymElement({(0, 0, 1): 1.0})
    out = poisson_sym(alg, s_a, f)
    assert out.residual(SymElement({(0, 0, 3): 0.5, (0, 0, -1): -0.5})) <= 1e-12


def test_poisson_sym_antisymmetry(alg):
    rng = np.random.default_rng(2)
    for _ in range(20):
        terms = {(int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                  int(rng.integers(-2, 3))): complex(rng.standard_normal())
                 for _ in range(3)}
        s = SymElement(terms)
        assert poisson_sym(alg, s, s).max_abs() <= 1e-9


def test_poisson_sym_leibniz_and_jacobi(alg):
    rng = np.random.default_rng(3)

    def rand_sym():
        return SymElement({(int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                            int(rng.integers(-2, 3))): complex(rng.standard_normal())
                           for _ in range(2)})

    def mul_sym(a, b):
        out = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, 0) + ca * cb
        return SymElement(out)

    for _ in range(15):
        a, b, c = rand_sym(), rand_sym(), rand_sym()
        # Leibniz: {a, bc} = {a,b} c + b {a,c}
        lhs = poisson_sym(alg, a, mul_sym(b, c))
        rhs = mul_sym(poisson_sym(alg, a, b), c).add(mul_sym(b, poisson_sym(alg, a, c)))
        assert lhs.residual(rhs) <= 1e-9 * (1.0 + lhs.max_abs())
        # Jacobi
        j = poisson_sym(alg, a, poisson_sym(alg, b, c)).add(
            poisson_sym(alg, b, poisson_sym(alg, c, a))).add(
            poisson_sym(alg, c, poisson_sym(alg, a, b)))
        assert j.max_abs() <= 1e-9 * (1.0 + abs(max(
            poisson_sym(alg, b, c).max_abs(), 1.0)))


def test_semiclassical_linear_cases_exact(alg):
    lead, tail = semiclassical_pair_residuals(alg, (1, 0, 0), (0, 1, 0))
    assert lead == 0.0 and tail == 0.0
    lead, tail = semiclassical_pair_residuals(alg, (1, 0, 0), (0, 0, 1))
    assert lead == 0.0 and tail == 0.0


def test_semiclassical_quadratic_has_tail(alg):
    # ((y_a)^2, y_2): leading order vanishes, higher orders are genuinely there
    lead, tail = semiclassical_pair_residuals(alg, (2, 0, 0), (0, 1, 0))
    assert lead <= 1e-12
    assert tail > 0.1


def test_verify_semiclassical_small(alg):
    rep = verify_semiclassical(alg, 2, 2)
    assert rep["pass"]
    assert rep["max_exact_case_residual"] == 0.0


def test_verify_semiclassical_rejects_bad_degree(alg):
    with pytest.raises(ValueError):
        verify_semiclassical(alg, 0, 2)


def test_verify_semiclassical_negative_control():
    bad = CrossedAlgebra(su11().mp, reorder_correction=0.0)
    rep = verify_semiclassical(bad, 2, 2)
    assert not rep["pass"]
    assert rep["max_h0_residual"] > 1e-3


def test_verify_semiclassical_propagates_nan(alg, monkeypatch):
    # a NaN pair residual must reach the sweep's maximum and fail it, not be
    # dropped by max(); the first pair is left finite so NaN is not the first value
    from poissonlie import quantize

    real = quantize.semiclassical_pair_residuals
    calls = []

    def one_nan(alg_, a_key, b_key):
        calls.append((a_key, b_key))
        return (float("nan"), 0.0) if len(calls) == 2 else real(alg_, a_key, b_key)

    monkeypatch.setattr(quantize, "semiclassical_pair_residuals", one_nan)
    rep = verify_semiclassical(alg, 1, 1)
    assert len(calls) > 2
    assert np.isnan(rep["max_h0_residual"])
    assert not rep["pass"]


def test_pretty_printer(alg):
    x = alg.monomial(1, 1, 2).add(alg.monomial(0, 0, 0, coeff=3.0, h_power=1))
    s = x.pretty()
    assert "t_a t_2" in s and "e^{2i phi}" in s and "h" in s
    assert alg.zero().pretty() == "0"


def test_coproduct_unit_and_generators(alg):
    cop = Coproduct(alg)
    assert cop.apply(alg.one()).terms == {((0, 0, 0), (0, 0, 0)): (1 + 0j)}
    gens = [alg.t_a(), alg.t_2(), alg.monomial(0, 0, 1), alg.monomial(0, 0, -1)]
    for x in gens:
        assert cop.coassociativity_residual(x) <= 1e-12
    for x in gens:
        for y in gens:
            assert cop.homomorphism_residual(x, y) <= 1e-12


def test_coproduct_sampled_products(alg):
    cop = Coproduct(alg)
    rng = np.random.default_rng(1)

    def rand_elem():
        terms = {}
        for _ in range(2):
            key = (int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                   int(rng.integers(-2, 3)))
            terms[key] = {0: complex(rng.standard_normal(), rng.standard_normal())}
        return CrossedElement(alg, terms)

    for _ in range(50):
        x = rand_elem()
        assert cop.coassociativity_residual(x) <= 1e-9 * (1.0 + cop.apply(x).max_abs())
    for _ in range(10):
        x, y = rand_elem(), rand_elem()
        scale = 1.0 + cop.apply(x.mul(y)).max_abs()
        assert cop.homomorphism_residual(x, y) <= 1e-9 * scale


def test_coproduct_inverted_action_fails_multiplicativity(alg):
    cop_bad = Coproduct(alg, invert_action=True)
    worst = max(cop_bad.homomorphism_residual(alg.monomial(0, 0, 1), alg.t_a()),
                cop_bad.homomorphism_residual(alg.t_2(), alg.t_a()))
    assert worst > 1e-3


def test_coproduct_rejects_h_terms(alg):
    cop = Coproduct(alg)
    with pytest.raises(ValueError):
        cop.apply(alg.monomial(1, 0, 0, h_power=1))


def test_q_plain_matches_qh_at_h_one(alg):
    s = SymElement({(2, 0, 1): 1.5, (0, 1, -1): -0.5})
    plain = q_plain(alg, s)
    graded = qh(alg, s)
    for key, hp in graded.terms.items():
        assert sum(hp.values()) == pytest.approx(plain.terms[key][0])
