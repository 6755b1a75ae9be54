import tracemalloc
from dataclasses import dataclass, field
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlie import group, trig
from poissonlie.catalog import su11
from poissonlie.checks import run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.linalg import worst
from poissonlie.quantize import (Coproduct, CrossedAlgebra, Key, TensorElement,
                                 semiclassical_residuals, verify_semiclassical)
from poissonlie.trig import fit_trig
from references import TrigPoly, commutator, one


@pytest.fixture(scope="module")
def alg():
    return CrossedAlgebra(su11().mp)


@dataclass(eq=False)
class SymElement:
    """Polynomial function on the dual fibre times a trig polynomial:
    finite map (y_a power, y_2 power, mode) -> coefficient."""

    terms: dict[Key, complex] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {k: complex(v) for k, v in self.terms.items() if v != 0}

    def add(self, other: "SymElement", scale: complex = 1.0) -> "SymElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + scale * v
        return SymElement(out)

    def max_abs(self) -> float:
        return worst(*(abs(c) for c in self.terms.values()))

    def residual(self, other: "SymElement") -> float:
        return self.add(other, scale=-1.0).max_abs()


def poisson_sym(alg: CrossedAlgebra, s1: SymElement, s2: SymElement) -> SymElement:
    """The symmetric (classical) bracket, the sweep's independent reference:
    the biderivation generated by {y_a, y_2} = lam y_2, {y, f} = X'_y f and
    {f, f} = 0."""
    out: dict[Key, complex] = {}

    def accumulate(key: Key, val: complex):
        if val != 0:
            out[key] = out.get(key, 0) + val

    for (m1, k1, n1), c1 in s1.terms.items():
        for (m2, k2, n2), c2 in s2.terms.items():
            c = c1 * c2
            # {y_a, y_2} contribution: (d_a A d_2 B - d_2 A d_a B) lam y_2
            coef = m1 * k2 - k1 * m2
            if coef:
                accumulate((m1 + m2 - 1, k1 + k2, n1 + n2), c * coef * alg.lam)
            # {y_a, f} contributions
            if m1:
                for mode, xc in alg.xprime_mode(0, n2).items():
                    accumulate((m1 + m2 - 1, k1 + k2, n1 + mode), c * m1 * xc)
            if m2:
                for mode, xc in alg.xprime_mode(0, n1).items():
                    accumulate((m1 + m2 - 1, k1 + k2, n2 + mode), -c * m2 * xc)
            # {y_2, f} contributions
            if k1:
                for mode, xc in alg.xprime_mode(1, n2).items():
                    accumulate((m1 + m2, k1 + k2 - 1, n1 + mode), c * k1 * xc)
            if k2:
                for mode, xc in alg.xprime_mode(1, n1).items():
                    accumulate((m1 + m2, k1 + k2 - 1, n2 + mode), -c * k2 * xc)
    return SymElement({k: v for k, v in out.items() if abs(v) > 1e-12})


def reference_product(alg, left, right):
    """Monomial product by term rewriting: push e^{in1} through t_a^{m2} t_2^{k2}
    one generator at a time, then move t_2 left one factor at a time with
    t_2 t_a^m = (t_a - lam')^m t_2."""
    def push(q, m, k):
        if q == 0 or m == k == 0:
            return {(m, k, q): 1.0}
        gen, sub, step = (0, (m - 1, k), (1, 0)) if m else (1, (0, k - 1), (0, 1))
        out = {}
        for (mm, kk, nn), c in push(q, *sub).items():
            key = (mm + step[0], kk + step[1], nn)
            out[key] = out.get(key, 0) + c
        for mode, c in alg.xprime_mode(gen, q).items():
            for key, d in push(mode, *sub).items():
                out[key] = out.get(key, 0) - c * d
        return {key: c for key, c in out.items() if abs(c) > 1e-12}

    m1, k1, n1 = left
    m2, k2, n2 = right
    acc = {(mm, kk, nn + n2): c for (mm, kk, nn), c in push(n1, m2, k2).items()}
    for _ in range(k1):
        nxt = {}
        for (mm, kk, nn), c in acc.items():
            for j in range(mm + 1):
                key = (j, kk + 1, nn)
                nxt[key] = nxt.get(key, 0) + c * comb(mm, j) * (-alg.lam_rewrite) ** (mm - j)
        acc = nxt
    return {(mm + m1, kk, nn): c for (mm, kk, nn), c in acc.items() if abs(c) > 1e-12}


def reference_mul_one_leg(alg, a, b):
    """The crossed-algebra product as a loop of its own, one term pair and one
    monomial product at a time."""
    out = {}
    for (ka,), ca in a.terms.items():
        for (kb,), cb in b.terms.items():
            c = ca * cb
            for key, coeff in alg.mono_pairs(ka, kb):
                out[(key,)] = out.get((key,), 0) + coeff * c
    return TensorElement(alg, 1, out).terms


def reference_mul_two_legs(alg, a, b):
    """The two-leg tensor product as a loop over both legs' monomial products."""
    out = {}
    for (a1, a2), ca in a.terms.items():
        for (b1, b2), cb in b.terms.items():
            c0 = ca * cb
            leg2 = alg.mono_pairs(a2, b2)
            for k1, c1 in alg.mono_pairs(a1, b1):
                for k2, c2 in leg2:
                    out[(k1, k2)] = out.get((k1, k2), 0) + c0 * c1 * c2
    return TensorElement(alg, 2, out).terms


def reference_pair_residuals(alg, a_key, b_key):
    """(leading-order residual, sub-leading mass) of one monomial pair, from
    the element commutator and the symmetric Poisson bracket."""
    comm = commutator(alg.monomial(*a_key), alg.monomial(*b_key))
    expected = poisson_sym(alg, SymElement({a_key: 1.0}), SymElement({b_key: 1.0}))
    d_top = a_key[0] + a_key[1] + b_key[0] + b_key[1] - 1
    lead, tail = [], []
    for key in {key for (key,) in comm.terms} | set(expected.terms):
        got = comm.terms.get((key,), 0)
        want = expected.terms.get(key, 0)
        if key[0] + key[1] == d_top:
            lead.append(abs(got - want))
        else:
            if want != 0:
                lead.append(abs(want))  # bracket must be homogeneous of top degree
            tail.append(abs(got))
    return worst(*lead), worst(*tail)


def test_trigpoly_arithmetic():
    f = TrigPoly.cos(2)
    g = TrigPoly.sin(2)
    # cos^2 + sin^2 = 1
    assert ((f * f) + (g * g)).residual(TrigPoly({0: 1.0})) <= 1e-15
    assert f.derivative().residual((-2.0) * TrigPoly.sin(2)) <= 1e-15


@settings(max_examples=30)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_trigpoly_mode_product(n, m):
    assert (TrigPoly.mode(n) * TrigPoly.mode(m)).residual(TrigPoly.mode(n + m)) == 0.0


def test_max_abs_keeps_a_nan_that_is_not_first():
    # max(1.0, nan) is 1.0: a plain max would hide the NaN from a residual
    assert np.isnan(TrigPoly({0: 1.0, 1: np.nan}).max_abs())
    assert np.isnan(SymElement({(0, 0, 0): 1.0, (0, 0, 1): np.nan}).max_abs())
    assert TrigPoly().max_abs() == SymElement().max_abs() == 0.0


def test_fit_trig_exact():
    samples = np.array([np.cos(2 * (2 * np.pi * k / 16)) for k in range(16)],
                       dtype=complex)
    assert TrigPoly(fit_trig(samples, 4)).residual(TrigPoly.cos(2)) <= 1e-12
    with pytest.raises(ValueError):
        fit_trig(samples, 8)


def test_commutator_of_generators(alg):
    comm = commutator(alg.t_a(), alg.t_2())
    expect = alg.element({(0, 1, 0): 2.0})
    assert comm.residual(expect) <= 1e-12


def test_commutator_generator_with_mode(alg):
    # [t_a, e^{in phi}] = (n/2)(e^{i(n+2) phi} - e^{i(n-2) phi})
    for n in (-3, 1, 4):
        comm = commutator(alg.t_a(), alg.monomial(0, 0, n))
        expect = alg.element({(0, 0, n + 2): n / 2.0}).add(
            alg.element({(0, 0, n - 2): -n / 2.0}))
        assert comm.residual(expect) <= 1e-12


def test_unit_element(alg):
    x = alg.element({(2, 1, -3): 1.5})
    assert one(alg).mul(x).residual(x) == 0.0
    assert x.mul(one(alg)).residual(x) == 0.0


def test_rewrite_t2_ta(alg):
    # t_2 t_a = t_a t_2 - 2 t_2
    prod = alg.t_2().mul(alg.t_a())
    expect = alg.monomial(1, 1, 0).add(alg.element({(0, 1, 0): -2.0}))
    assert prod.residual(expect) <= 1e-12


def test_associativity_sampled(alg):
    rng = np.random.default_rng(0)

    def rand_elem():
        terms = {}
        for _ in range(3):
            key = (int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                   int(rng.integers(-3, 4)))
            terms[key] = complex(rng.standard_normal(), rng.standard_normal())
        return alg.element(terms)

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        p1 = a.mul(b).mul(c)
        p2 = a.mul(b.mul(c))
        scale = 1.0 + max(p1.max_abs(), p2.max_abs())
        assert p1.residual(p2) / scale <= 1e-9


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


def test_mono_pairs_match_rewriting_reference():
    # the product blocks (dense push, closed-form t_2 shift) against term rewriting
    keys = [(m, k, n) for m in range(3) for k in range(4 - m) for n in range(-3, 4)]
    for correction in (1.0, 0.0):
        alg_ = CrossedAlgebra(su11().mp, reorder_correction=correction)
        for left in keys:
            for right in keys:
                got = dict(alg_.mono_pairs(left, right))
                want = reference_product(alg_, left, right)
                scale = 1.0 + max(abs(c) for c in want.values())
                for key in set(got) | set(want):
                    assert abs(got.get(key, 0) - want.get(key, 0)) <= 1e-14 * scale


def test_semiclassical_linear_cases_exact(alg):
    lead, tail = reference_pair_residuals(alg, (1, 0, 0), (0, 1, 0))
    assert lead == 0.0 and tail == 0.0
    lead, tail = reference_pair_residuals(alg, (1, 0, 0), (0, 0, 1))
    assert lead == 0.0 and tail == 0.0


def test_semiclassical_quadratic_has_tail(alg):
    # ((y_a)^2, y_2): leading order vanishes, higher orders are genuinely there
    lead, tail = reference_pair_residuals(alg, (2, 0, 0), (0, 1, 0))
    assert lead <= 1e-12
    assert tail > 0.1


@pytest.mark.parametrize("correction, maxdeg, maxmode", [(1.0, 4, 6), (0.0, 2, 2)])
def test_sweep_matches_per_pair_reference(correction, maxdeg, maxmode):
    # lead on every pair; the tail, formed on the exact cases (both degrees at
    # most 1) only, on each of them, one entry per exact pair in sweep order
    alg_ = CrossedAlgebra(su11().mp, reorder_correction=correction)
    a, b, lead, tail = semiclassical_residuals(alg_, maxdeg, maxmode)
    keys = [(m, k, n) for m in range(maxdeg + 1) for k in range(maxdeg + 1 - m)
            for n in range(-maxmode, maxmode + 1)]
    pairs = [(ka, kb) for i, ka in enumerate(keys) for kb in keys[i:]
             if ka[0] + ka[1] + kb[0] + kb[1] >= 1]
    assert [(tuple(x), tuple(y)) for x, y in zip(a.tolist(), b.tolist())] == pairs
    exact = [(ka, kb) for ka, kb in pairs if ka[0] + ka[1] <= 1 and kb[0] + kb[1] <= 1]
    assert len(tail) == len(exact) == (2 * maxmode + 1) * (8 * maxmode + 5)
    for i, (ka, kb) in enumerate(pairs):
        assert lead[i] == reference_pair_residuals(alg_, ka, kb)[0], (ka, kb)
    for got, (ka, kb) in zip(tail, exact):
        ref_tail = reference_pair_residuals(alg_, ka, kb)[1]
        assert abs(got - ref_tail) <= 1e-13 * max(ref_tail, 1.0), (ka, kb)


@pytest.mark.parametrize("correction", [1.0, 0.0])
@pytest.mark.parametrize("maxdeg, maxmode", [(4, 6), (2, 2)])
def test_class_pair_residuals_do_not_depend_on_the_pairs_asked(monkeypatch, correction,
                                                               maxdeg, maxmode):
    # a class paired with itself asks for its mode pairs n_A <= n_B only;
    # each pair's residuals are the bits it has on the full mode grid
    from poissonlie import quantize

    real = quantize._class_pair_residuals
    diagonal = []

    def compared(alg_, xprime, left, right, na, nb):
        lead, tail = real(alg_, xprime, left, right, na, nb)
        modes = xprime.shape[2]
        full_a, full_b = np.indices((modes, modes)).reshape(2, -1)
        full_lead, full_tail = real(alg_, xprime, left, right, full_a, full_b)
        at = na * modes + nb
        assert full_lead[at].tobytes() == lead.tobytes(), (left, right)
        # a tail is formed exactly when both degrees are at most 1
        assert (tail is None) == (full_tail is None) == (sum(left) > 1 or sum(right) > 1)
        if tail is not None:
            assert full_tail[at].tobytes() == tail.tobytes(), (left, right)
        if left == right:
            diagonal.append(len(na) == modes * (modes + 1) // 2)
        return lead, tail

    monkeypatch.setattr(quantize, "_class_pair_residuals", compared)
    semiclassical_residuals(CrossedAlgebra(su11().mp, reorder_correction=correction),
                            maxdeg, maxmode)
    assert len(diagonal) == (maxdeg + 1) * (maxdeg + 2) // 2 - 1 and all(diagonal)


def _swept_with(monkeypatch, stack, entry, maxdeg=2, maxmode=2, delta=0.5):
    """The sweep and its report on su11's (maxdeg, maxmode) grid, with `delta`
    added to one entry (row q + maxmode, t_a index, t_2 index, relative mode)
    of the block stack core(k1, q, m2, k2), stack = (k1, m2, k2)."""
    real = CrossedAlgebra._block_stack

    def perturbed(self, k1, m2, k2, window):
        out = real(self, k1, m2, k2, window)
        if (k1, m2, k2) == stack:
            out = out.copy()
            out[entry] += delta
        return out

    with monkeypatch.context() as patch:
        patch.setattr(CrossedAlgebra, "_block_stack", perturbed)
        swept = semiclassical_residuals(CrossedAlgebra(su11().mp), maxdeg, maxmode)
        rep = verify_semiclassical(CrossedAlgebra(su11().mp), maxdeg, maxmode)
    return swept, rep


def _keys_in(keys, cls, mode=None):
    """Which rows of a key array are of the (t_a, t_2)-power class, and at the
    mode if one is given."""
    at = (keys[:, :2] == cls).all(axis=1)
    return at if mode is None else at & (keys[:, 2] == mode)


def test_a_top_degree_entry_moves_the_lead_of_its_class_pair_only(monkeypatch):
    # on the (2, 2) grid the stack core(2, q, 1, 1), t_2^2 e^{iq phi} t_a t_2,
    # is read by the class pair (t_2^2, t_a t_2) of degree 4 alone; its cells
    # (0, 1) and (1, 0) are of the top degree 3, and row q is read by the
    # mode pairs with n_A = q
    a, b, lead, tail = semiclassical_residuals(CrossedAlgebra(su11().mp), 2, 2)
    for cell in ((0, 1), (1, 0)):
        for row in range(5):
            for r in (0, 4, 8):
                (_, _, got, got_tail), _ = _swept_with(monkeypatch, (2, 1, 1), (row, *cell, r))
                want = _keys_in(a, (0, 2), row - 2) & _keys_in(b, (1, 1))
                assert np.array_equal(got != lead, want), (cell, row, r)
                assert np.all(got[want] == 0.5) and got_tail.tobytes() == tail.tobytes()


def test_an_entry_below_the_top_degree_leaves_every_lead_alone(monkeypatch):
    # the same stack's cell (0, 0) is of degree 2, below the top degree 3 of
    # its only class pair, which is not an exact case; (1, 1) is its leading
    # term, of degree 4: the sweep reads neither
    swept = semiclassical_residuals(CrossedAlgebra(su11().mp), 2, 2)
    for cell in ((0, 0), (1, 1)):
        for row in range(5):
            got, _ = _swept_with(monkeypatch, (2, 1, 1), (row, *cell, 4))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, swept)), (cell, row)


def test_an_exact_case_entry_off_the_top_degree_moves_its_tail(monkeypatch):
    # the stack core(1, q, 1, 0), t_2 e^{iq phi} t_a, is read by the exact
    # case (t_2, t_a) and by (t_a, t_a t_2); its cell (1, 0), the leading term
    # t_a t_2, is of top degree for neither: it moves the exact case's tail
    # and exact_cases, and no lead
    a, b, lead, tail = semiclassical_residuals(CrossedAlgebra(su11().mp), 2, 2)
    exact = (a[:, 0] + a[:, 1] <= 1) & (b[:, 0] + b[:, 1] <= 1)
    for row in range(5):
        (_, _, got, got_tail), rep = _swept_with(monkeypatch, (1, 1, 0), (row, 1, 0, 2))
        assert got.tobytes() == lead.tobytes(), row
        want = _keys_in(a, (0, 1), row - 2) & _keys_in(b, (1, 0))
        assert np.array_equal(got_tail != tail, want[exact]), row
        assert np.all(got_tail[want[exact]] == 0.5)
        assert rep["max_exact_case_residual"] == 0.5 and rep["max_h0_residual"] <= 1e-12


#: bound in bytes on the tracemalloc peak of the (4, 6) sweep on a fresh
#: circle algebra (numpy 2.4.6): a sweep that forms every cell of each class
#: pair's frame peaked at 4.61 MB, one that forms only the cells it reads at
#: 3.61 MB
FULL_FRAME_PEAK = 4.41e6


def test_the_sweep_forms_only_the_cells_it_reads():
    alg_ = CrossedAlgebra(su11().mp)    # its stacks are built inside the trace
    tracemalloc.start()
    try:
        semiclassical_residuals(alg_, 4, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FULL_FRAME_PEAK


def test_verify_semiclassical_small(alg):
    rep = verify_semiclassical(alg, 2, 2)
    assert worst(rep["max_h0_residual"], rep["max_exact_case_residual"]) <= 1e-12
    assert rep["max_exact_case_residual"] == 0.0
    assert set(rep) == {"degrees", "modes", "pairs", "max_h0_residual",
                        "max_exact_case_residual", "worst_pair"}


def test_verify_semiclassical_rejects_bad_degree(alg):
    with pytest.raises(ValueError):
        verify_semiclassical(alg, 0, 2)
    with pytest.raises(ValueError):   # an empty grid has no worst pair
        verify_semiclassical(alg, 2, -1)


def test_verify_semiclassical_negative_control():
    bad = CrossedAlgebra(su11().mp, reorder_correction=0.0)
    rep = verify_semiclassical(bad, 2, 2)
    assert not worst(rep["max_h0_residual"], rep["max_exact_case_residual"]) <= 1e-12
    assert rep["max_h0_residual"] > 1e-3
    # the witness is the first pair with the largest leading-order residual
    a_key, b_key = map(tuple, rep["worst_pair"])
    assert reference_pair_residuals(bad, a_key, b_key)[0] == rep["max_h0_residual"]
    a, b, lead, _ = semiclassical_residuals(bad, 2, 2)
    first = int(np.flatnonzero(lead == rep["max_h0_residual"])[0])
    assert (tuple(a[first]), tuple(b[first])) == (a_key, b_key)


def test_verify_semiclassical_propagates_nan(monkeypatch):
    # a NaN in one push, e^{i phi} t_a (the q = 1 row of the (m, k) = (1, 0)
    # stack), must pass the 1e-12 zeroing of the product blocks and reach the
    # sweep's maximum, not be dropped by max(), and fail the check; the first
    # pairs of the sweep do not read it, so NaN is not the first value
    real = CrossedAlgebra._push_stack

    def nan_push(self, m, k, radius):
        out = real(self, m, k, radius)
        if (m, k) == (1, 0):
            out = out.copy()
            out[radius + 1] = np.nan
        return out

    monkeypatch.setattr(CrossedAlgebra, "_push_stack", nan_push)
    rep = verify_semiclassical(CrossedAlgebra(su11().mp), 1, 1)
    assert np.isnan(rep["max_h0_residual"])
    assert rep["worst_pair"][0] == [0, 0, 1]
    out = run_check("semiclassical", su11(), 0, None, DEFAULT_TOL)
    assert np.isnan(out["max_residual"]) and not out["pass"]


@pytest.mark.parametrize("sweep_first", [True, False])
@pytest.mark.parametrize("correction", [1.0, 0.0])
def test_mode_window_widens_without_stale_rows(correction, sweep_first):
    # left modes past the sweep's +-6 widen the table's mode window one mode at
    # a time and rebuild its stacks; before or after the sweep, no row may be
    # stale or truncated
    fresh = semiclassical_residuals(CrossedAlgebra(su11().mp, reorder_correction=correction),
                                    4, 6)
    alg_ = CrossedAlgebra(su11().mp, reorder_correction=correction)
    lefts = [(m, k, n) for n in sorted(range(-12, 13), key=abs)
             for m in range(3) for k in range(3 - m)]
    rights = [(m, k, n) for m in range(3) for k in range(3 - m) for n in (-2, 0, 1)]

    def wide_products():
        for left in lefts:
            for right in rights:
                got = dict(alg_.mono_pairs(left, right))
                want = reference_product(alg_, left, right)
                scale = 1.0 + max(abs(c) for c in want.values())
                for key in set(got) | set(want):
                    assert abs(got.get(key, 0) - want.get(key, 0)) <= 1e-14 * scale, \
                        (left, right, key)

    if not sweep_first:
        wide_products()
    swept = semiclassical_residuals(alg_, 4, 6)
    if sweep_first:
        wide_products()
    for got, want in zip(swept, fresh):
        assert np.array_equal(got, want)


def test_coproduct_unit_and_generators(alg):
    cop = Coproduct(alg)
    assert cop.apply(one(alg)).terms == {((0, 0, 0), (0, 0, 0)): (1 + 0j)}
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
            terms[key] = complex(rng.standard_normal(), rng.standard_normal())
        return alg.element(terms)

    for _ in range(50):
        x = rand_elem()
        assert cop.coassociativity_residual(x) <= 1e-9 * (1.0 + cop.apply(x).max_abs())
    for _ in range(10):
        x, y = rand_elem(), rand_elem()
        scale = 1.0 + cop.apply(x.mul(y)).max_abs()
        assert cop.homomorphism_residual(x, y) <= 1e-9 * scale


def test_coproduct_inverted_action_fails_multiplicativity(alg, monkeypatch):
    # the twist by the action of the inverse group element: exp_b at -phi
    real = group.exp_b
    monkeypatch.setattr(group, "exp_b", lambda mp, xb, t: real(mp, xb, -t))
    cop_bad = Coproduct(alg)
    worst = max(cop_bad.homomorphism_residual(alg.monomial(0, 0, 1), alg.t_a()),
                cop_bad.homomorphism_residual(alg.t_2(), alg.t_a()))
    assert worst > 1e-3


def test_product_matches_loop_references(alg):
    # the one leg-by-leg product multiplies in the loops' order, so the
    # coefficients agree exactly, including on coproducts Delta x . Delta y
    cop = Coproduct(alg)
    rng = np.random.default_rng(4)

    def rand_key():
        return (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(-2, 3)))

    def rand_coeff():
        return complex(rng.standard_normal(), rng.standard_normal())

    for _ in range(20):
        x, y = (alg.element({rand_key(): rand_coeff() for _ in range(2)}) for _ in range(2))
        assert x.mul(y).terms == reference_mul_one_leg(alg, x, y)
        u, v = (TensorElement(alg, 2, {(rand_key(), rand_key()): rand_coeff()
                                       for _ in range(2)}) for _ in range(2))
        assert u.mul(v).terms == reference_mul_two_legs(alg, u, v)
        dx, dy = cop.apply(x), cop.apply(y)
        assert dx.mul(dy).terms == reference_mul_two_legs(alg, dx, dy)


def test_semiclassical_reports_a_nan_coproduct(monkeypatch):
    # a NaN coefficient of the fitted group action must survive the chopping of
    # small tensor terms, reach both coproduct residuals and fail the check
    real = trig.fit_trig

    def nan_fit(values, max_mode):
        return {**real(values, max_mode), 9: complex(np.nan)}

    monkeypatch.setattr(trig, "fit_trig", nan_fit)
    out = run_check("semiclassical", su11(), 0, None, DEFAULT_TOL)
    assert np.isnan(out["details"]["coproduct_coassociativity"])
    assert np.isnan(out["details"]["coproduct_homomorphism"])
    assert np.isnan(out["max_residual"]) and not out["pass"]
