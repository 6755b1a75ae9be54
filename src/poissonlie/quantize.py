"""Ordered-monomial quantization of the circle pair: the crossed algebra of the
two solvable generators over trig polynomials, the graded quantization maps,
the exact leading-order commutator check, and the bicrossed coproduct.

The deformation parameter h is formal: coefficients are polynomials in h, so
"vanishes to leading order" is a statement about exact polynomial coefficients,
not numerical limits.  Normal order puts t_a before t_2 before the trig factor;
rewriting terminates because [y_a, y_2] = 2 y_2 lowers the disorder degree.

Conventions recorded in the report: the self-adjointness factor i of the
unbounded-multiplier picture is dropped, so [t_y, f] = X'_y(f) matches the
Poisson bracket {y~, pull(f)} without rescaling, and the coproduct twist uses
the action of the group element itself (not its inverse) on the fibre
directions; both coassociativity and multiplicativity pin that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .linalg import worst
from .matched import MatchedPair
from .poisson import anchor_trig, circle_parameter_checks
from .trig import TrigPoly

_EPS = 1e-12

# coefficient values are polynomials in h: exponent -> complex
HPoly = dict[int, complex]


def _hp_add(a: HPoly, b: HPoly, scale: complex = 1.0) -> HPoly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c != 0}


def _hp_shift(a: HPoly, shift: int) -> HPoly:
    return {e + shift: c for e, c in a.items()}


def _hp_scale(a: HPoly, s: complex) -> HPoly:
    return {e: s * c for e, c in a.items() if s * c != 0}


def _hp_max(a: HPoly) -> float:
    return max((abs(c) for c in a.values()), default=0.0)


Key = tuple[int, int, int]  # (t_a power, t_2 power, Fourier mode)


@dataclass(eq=False)
class CrossedElement:
    """Finite sum of normal-ordered monomials t_a^m t_2^k e^{in phi} with
    h-polynomial coefficients."""

    algebra: "CrossedAlgebra"
    terms: dict[Key, HPoly] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {k: dict(v) for k, v in self.terms.items() if _hp_max(v) != 0.0}

    def copy(self) -> "CrossedElement":
        return CrossedElement(self.algebra, {k: dict(v) for k, v in self.terms.items()})

    def add(self, other: "CrossedElement", scale: complex = 1.0) -> "CrossedElement":
        out = {k: dict(v) for k, v in self.terms.items()}
        for k, v in other.terms.items():
            out[k] = _hp_add(out.get(k, {}), v, scale)
        return CrossedElement(self.algebra, out)

    def scaled(self, s: complex) -> "CrossedElement":
        return CrossedElement(self.algebra, {k: _hp_scale(v, s) for k, v in self.terms.items()})

    def mul(self, other: "CrossedElement") -> "CrossedElement":
        return self.algebra.mul(self, other)

    def commutator(self, other: "CrossedElement") -> "CrossedElement":
        return self.mul(other).add(other.mul(self), scale=-1.0)

    def max_abs(self) -> float:
        return max((_hp_max(v) for v in self.terms.values()), default=0.0)

    def residual(self, other: "CrossedElement") -> float:
        return self.add(other, scale=-1.0).max_abs()

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (m, k, n), hp in sorted(self.terms.items()):
            sym = []
            if m:
                sym.append(f"t_a^{m}" if m > 1 else "t_a")
            if k:
                sym.append(f"t_2^{k}" if k > 1 else "t_2")
            if n:
                sym.append(f"e^{{{n}i phi}}")
            mono = " ".join(sym) if sym else "1"
            coef = " + ".join(
                f"({c:.6g})" + (f" h^{e}" if e > 1 else (" h" if e == 1 else ""))
                for e, c in sorted(hp.items()))
            bits.append(f"[{coef}] {mono}")
        return "  +  ".join(bits)


class CrossedAlgebra:
    """U(c) x| Trig(U(1)) for a circle pair, with cached monomial products."""

    def __init__(self, mp: MatchedPair, reorder_correction: float = 1.0):
        circle_parameter_checks(mp)
        if mp.dim_c != 2:
            raise ValueError("crossed algebra expects the two solvable generators")
        self.mp = mp
        # alpha polynomials of the anchor fields for the two generators
        self.alpha = [anchor_trig(mp, np.eye(2)[i]) for i in range(2)]
        # structure constant [y_a, y_2] = lam * y_2 (catalog value 2)
        br = mp.c_coords(mp.g.bracket_coords(mp.y_basis[0], mp.y_basis[1]))
        if abs(br[0]) > 1e-12:
            raise ValueError("unexpected y_a component in [y_a, y_2]")
        self.lam = float(br[1])
        # the rewrite-side constant; scaling it corrupts the normal ordering
        # only, leaving the classical bracket intact (negative control)
        self.lam_rewrite = self.lam * reorder_correction
        self._push_cache: dict[tuple[int, int, int], dict[Key, complex]] = {}
        self._pair_cache: dict[tuple[Key, Key], list] = {}

    # -- constructors ------------------------------------------------------

    def zero(self) -> CrossedElement:
        return CrossedElement(self, {})

    def one(self) -> CrossedElement:
        return CrossedElement(self, {(0, 0, 0): {0: 1.0}})

    def monomial(self, m: int, k: int, n: int, coeff: complex = 1.0,
                 h_power: int = 0) -> CrossedElement:
        return CrossedElement(self, {(m, k, n): {h_power: coeff}})

    def t_a(self) -> CrossedElement:
        return self.monomial(1, 0, 0)

    def t_2(self) -> CrossedElement:
        return self.monomial(0, 1, 0)

    def trig(self, f: TrigPoly) -> CrossedElement:
        return CrossedElement(self, {(0, 0, n): {0: c} for n, c in f.coeffs.items()})

    # -- derivation coefficients --------------------------------------------

    def xprime_mode(self, gen: int, q: int) -> dict[int, complex]:
        """Fourier modes of X'_{y_gen}(e^{iq phi}) = alpha_gen * (iq e^{iq phi})."""
        out = {}
        for mode, c in self.alpha[gen].coeffs.items():
            val = c * 1j * q
            if val != 0:
                out[mode + q] = out.get(mode + q, 0) + val
        return {m: c for m, c in out.items() if abs(c) > _EPS}

    # -- normal-ordered product ----------------------------------------------

    def _push_trig(self, q: int, m: int, k: int) -> dict[Key, complex]:
        """Normal form of e^{iq phi} t_a^m t_2^k as {key: coefficient}."""
        if q == 0:
            return {(m, k, 0): 1.0}
        cache_key = (q, m, k)
        if cache_key in self._push_cache:
            return self._push_cache[cache_key]
        if m == 0 and k == 0:
            out = {(0, 0, q): 1.0}
        elif m > 0:
            # e^{iq} t_a = t_a e^{iq} - X'_a(e^{iq})
            out: dict[Key, complex] = {}
            for (mm, kk, nn), c in self._push_trig(q, m - 1, k).items():
                out[(mm + 1, kk, nn)] = out.get((mm + 1, kk, nn), 0) + c
            for mode, c in self.xprime_mode(0, q).items():
                for (mm, kk, nn), d in self._push_trig(mode, m - 1, k).items():
                    out[(mm, kk, nn)] = out.get((mm, kk, nn), 0) - c * d
        else:
            # e^{iq} t_2 = t_2 e^{iq} - X'_2(e^{iq})
            out = {}
            for (mm, kk, nn), c in self._push_trig(q, 0, k - 1).items():
                out[(mm, kk + 1, nn)] = out.get((mm, kk + 1, nn), 0) + c
            for mode, c in self.xprime_mode(1, q).items():
                for (mm, kk, nn), d in self._push_trig(mode, 0, k - 1).items():
                    out[(mm, kk, nn)] = out.get((mm, kk, nn), 0) - c * d
        out = {key: c for key, c in out.items() if abs(c) > _EPS}
        self._push_cache[cache_key] = out
        return out

    def mono_pairs(self, left: Key, right: Key) -> list[tuple[Key, complex]]:
        """Product of two monomials as a flat (key, coefficient) list, cached."""
        cache_key = (left, right)
        hit = self._pair_cache.get(cache_key)
        if hit is None:
            hit = self._mul_monomials(left, right)
            self._pair_cache[cache_key] = hit
        return hit

    def _mul_monomials(self, left: Key, right: Key) -> list[tuple[Key, complex]]:
        m1, k1, n1 = left
        m2, k2, n2 = right
        # step 1: e^{in1} t_a^{m2} t_2^{k2} -> normal form
        acc: dict[Key, complex] = {}
        for (mm, kk, nn), c in self._push_trig(n1, m2, k2).items():
            acc[(mm, kk, nn + n2)] = acc.get((mm, kk, nn + n2), 0) + c
        # step 2: multiply by t_2^{k1} on the left: t_2 t_a^m = (t_a - lam)^m t_2
        for _ in range(k1):
            nxt: dict[Key, complex] = {}
            for (mm, kk, nn), c in acc.items():
                for j in range(mm + 1):
                    coef = c * comb(mm, j) * (-self.lam_rewrite) ** (mm - j)
                    key = (j, kk + 1, nn)
                    nxt[key] = nxt.get(key, 0) + coef
            acc = nxt
        # step 3: multiply by t_a^{m1} on the left
        return [((mm + m1, kk, nn), c) for (mm, kk, nn), c in acc.items() if abs(c) > _EPS]

    def mul(self, a: CrossedElement, b: CrossedElement) -> CrossedElement:
        acc: dict[Key, HPoly] = {}
        for ka, ha in a.terms.items():
            for kb, hb in b.terms.items():
                prod_h: HPoly = {}
                for ea, ca in ha.items():
                    for eb, cb in hb.items():
                        prod_h[ea + eb] = prod_h.get(ea + eb, 0) + ca * cb
                for key, coeff in self.mono_pairs(ka, kb):
                    slot = acc.setdefault(key, {})
                    for e, c in prod_h.items():
                        slot[e] = slot.get(e, 0) + coeff * c
        return CrossedElement(self, acc)


# -- symmetric (classical) side ------------------------------------------------


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
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def residual(self, other: "SymElement") -> float:
        return self.add(other, scale=-1.0).max_abs()


def qh(alg: CrossedAlgebra, s: SymElement) -> CrossedElement:
    """Graded quantization: each degree-d monomial maps to its ordered product
    times h^d."""
    return CrossedElement(alg, {
        (m, k, n): {m + k: c} for (m, k, n), c in s.terms.items()})


def q_plain(alg: CrossedAlgebra, s: SymElement) -> CrossedElement:
    """Ordered-monomial linear isomorphism without the h grading."""
    return CrossedElement(alg, {key: {0: c} for key, c in s.terms.items()})


def qh_inverse_units(x: CrossedElement) -> dict[Key, HPoly]:
    """Re-express a crossed element in quantization units: the coefficient of a
    degree-d monomial is divided by h^d.  Requires divisibility."""
    out = {}
    for (m, k, n), hp in x.terms.items():
        d = m + k
        if any(e < d for e in hp):
            raise ValueError("element is not in the image of the graded quantization")
        out[(m, k, n)] = _hp_shift(hp, -d)
    return out


def poisson_sym(alg: CrossedAlgebra, s1: SymElement, s2: SymElement) -> SymElement:
    """Biderivation generated by {y_a, y_2} = lam y_2, {y, f} = X'_y f, {f, f} = 0."""
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
    return SymElement({k: v for k, v in out.items() if abs(v) > _EPS})


def semiclassical_pair_residuals(alg: CrossedAlgebra, a_key: Key, b_key: Key) -> tuple[float, float]:
    """(leading-order residual, sub-leading mass) for one monomial pair.

    The commutator of the plain quantizations, regraded in quantization units,
    must reproduce the Poisson bracket in its top degree; everything below is
    the O(h) tail (h^{d_top - d} per monomial of degree d)."""
    qa = alg.monomial(*a_key)
    qb = alg.monomial(*b_key)
    comm = qa.commutator(qb)
    expected = poisson_sym(alg, SymElement({a_key: 1.0}), SymElement({b_key: 1.0}))
    d_top = a_key[0] + a_key[1] + b_key[0] + b_key[1] - 1
    lead, tail = [], []
    for key in set(comm.terms) | set(expected.terms):
        got = comm.terms.get(key, {}).get(0, 0)
        want = expected.terms.get(key, 0)
        if key[0] + key[1] == d_top:
            lead.append(abs(got - want))
        else:
            if want != 0:
                lead.append(abs(want))  # bracket must be homogeneous of top degree
            tail.append(abs(got))
    return worst(*lead), worst(*tail)


def verify_semiclassical(alg: CrossedAlgebra, maxdeg: int, maxmode: int,
                         tol: float = 1e-12) -> dict:
    """Sweep all monomial pairs up to the given degree and mode bounds.

    Asserts the leading-order (h^0 in quantization units) coefficient of
    [Q_h A, Q_h B]/h - Q_h({A, B}) vanishes for every pair, with exact
    vanishing at all orders for the linear x linear and linear x function
    pairs."""
    if maxdeg < 1:
        raise ValueError("maxdeg must be at least 1")
    monos = [(m, k, n) for m in range(maxdeg + 1) for k in range(maxdeg + 1 - m)
             for n in range(-maxmode, maxmode + 1)]
    worst_lead = 0.0
    worst_exact = 0.0
    pairs = 0
    # [B, A] = -[A, B], so unordered pairs suffice
    for idx_a, a_key in enumerate(monos):
        for b_key in monos[idx_a:]:
            da = a_key[0] + a_key[1]
            db = b_key[0] + b_key[1]
            if da + db < 1:
                continue
            pairs += 1
            lead, tail = semiclassical_pair_residuals(alg, a_key, b_key)
            worst_lead = worst(worst_lead, lead)
            if (da, db) in ((1, 1), (1, 0), (0, 1)):
                worst_exact = worst(worst_exact, lead, tail)
    return {
        "degrees": maxdeg,
        "modes": maxmode,
        "pairs": pairs,
        "max_h0_residual": worst_lead,
        "max_exact_case_residual": worst_exact,
        "tolerance": tol,
        "pass": bool(worst(worst_lead, worst_exact) <= tol),
    }


# -- coproduct -------------------------------------------------------------------


@dataclass(eq=False)
class TensorElement:
    """Element of the N-fold tensor power of the crossed algebra."""

    algebra: CrossedAlgebra
    legs: int
    terms: dict[tuple[Key, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {k: complex(v) for k, v in self.terms.items() if abs(v) > _EPS}

    def add(self, other: "TensorElement", scale: complex = 1.0) -> "TensorElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + scale * v
        return TensorElement(self.algebra, self.legs, out)

    def mul(self, other: "TensorElement") -> "TensorElement":
        out: dict[tuple[Key, ...], complex] = {}
        pairs = self.algebra.mono_pairs
        if self.legs == 2:
            for (a1, a2), ca in self.terms.items():
                for (b1, b2), cb in other.terms.items():
                    c0 = ca * cb
                    leg2 = pairs(a2, b2)
                    for k1, c1 in pairs(a1, b1):
                        for k2, c2 in leg2:
                            key = (k1, k2)
                            out[key] = out.get(key, 0) + c0 * c1 * c2
        else:
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    stack = [((), ca * cb)]
                    for la, lb in zip(ka, kb):
                        leg = pairs(la, lb)
                        stack = [(keys + (key,), c * cc)
                                 for keys, c in stack for key, cc in leg]
                    for keys, c in stack:
                        out[keys] = out.get(keys, 0) + c
        return TensorElement(self.algebra, self.legs, out)

    def commutator(self, other: "TensorElement") -> "TensorElement":
        return self.mul(other).add(other.mul(self), scale=-1.0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def residual(self, other: "TensorElement") -> float:
        return self.add(other, scale=-1.0).max_abs()


class Coproduct:
    """The bicrossed coproduct on the circle crossed algebra.

    Group-likes go to themselves twice; fibre generators pick up matrix
    coefficients of the group action on the solvable directions, applied on
    the base leg: Delta(t_i) = t_i (x) 1 + sum_j c_ji (x) t_j."""

    def __init__(self, alg: CrossedAlgebra, invert_action: bool = False,
                 samples: int = 32, max_mode: int = 4):
        from .group import exp_b
        from .trig import fit_trig

        self.alg = alg
        mp = alg.mp
        vals = np.zeros((samples, 2, 2), dtype=complex)
        for m in range(samples):
            phi = 2.0 * np.pi * m / samples
            a = exp_b(mp, np.array([1.0]), -phi if invert_action else phi)
            vals[m] = mp.action_on_c(a)
        self.coeff = [[fit_trig(vals[:, j, i], max_mode) for i in range(2)]
                      for j in range(2)]
        self._gen_cache = [self._delta_generator(0), self._delta_generator(1)]
        self._mono_cache: dict[Key, dict] = {}
        self._coassoc_cache: dict[Key, dict] = {}

    def _delta_generator(self, gen: int) -> TensorElement:
        t_key = [(1, 0, 0), (0, 1, 0)][gen]
        terms = {(t_key, (0, 0, 0)): 1.0 + 0j}
        for j in range(2):
            for mode, c in self.coeff[j][gen].coeffs.items():
                key = ((0, 0, mode), [(1, 0, 0), (0, 1, 0)][j])
                terms[key] = terms.get(key, 0) + c
        return TensorElement(self.alg, 2, terms)

    def _delta_monomial(self, key: Key) -> TensorElement:
        if key in self._mono_cache:
            return TensorElement(self.alg, 2, self._mono_cache[key])
        m, k, n = key
        if m > 0:
            acc = self._gen_cache[0].mul(self._delta_monomial((m - 1, k, n)))
        elif k > 0:
            acc = self._gen_cache[1].mul(self._delta_monomial((0, k - 1, n)))
        else:
            acc = TensorElement(self.alg, 2, {((0, 0, n), (0, 0, n)): 1.0})
        self._mono_cache[key] = acc.terms
        return acc

    def apply(self, x: CrossedElement) -> TensorElement:
        """Delta on a crossed element; monomials map multiplicatively."""
        out = TensorElement(self.alg, 2, {})
        for key, hp in x.terms.items():
            if any(e != 0 for e in hp):
                raise ValueError("coproduct tests operate on h-free elements")
            out = out.add(self._delta_monomial(key), scale=hp.get(0, 0))
        return out

    def apply_leg(self, x: TensorElement, leg: int) -> TensorElement:
        """(Delta (x) id) or (id (x) Delta) on a two-leg element."""
        out = TensorElement(self.alg, 3, {})
        for keys, c in x.terms.items():
            expanded = self.apply(CrossedElement(self.alg, {keys[leg]: {0: 1.0}}))
            for (k1, k2), cc in expanded.terms.items():
                if leg == 0:
                    new = (k1, k2, keys[1])
                else:
                    new = (keys[0], k1, k2)
                out.terms[new] = out.terms.get(new, 0) + c * cc
        return TensorElement(self.alg, 3, out.terms)

    def coassociativity_residual(self, x: CrossedElement) -> float:
        """| (Delta (x) id) Delta x - (id (x) Delta) Delta x |, monomial-cached."""
        acc: dict[tuple[Key, Key, Key], complex] = {}
        for key, hp in x.terms.items():
            if key not in self._coassoc_cache:
                dx = self._delta_monomial(key)
                diff = self.apply_leg(dx, 0).add(self.apply_leg(dx, 1), scale=-1.0)
                self._coassoc_cache[key] = diff.terms
            for kk, c in self._coassoc_cache[key].items():
                acc[kk] = acc.get(kk, 0) + hp.get(0, 0) * c
        return max((abs(c) for c in acc.values()), default=0.0)

    def homomorphism_residual(self, x: CrossedElement, y: CrossedElement) -> float:
        lhs = self.apply(x.mul(y))
        rhs = self.apply(x).mul(self.apply(y))
        return lhs.residual(rhs)
