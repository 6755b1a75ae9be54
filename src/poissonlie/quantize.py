"""Ordered-monomial quantization of the circle pair: the crossed algebra of the
two solvable generators over trig polynomials, the graded quantization maps,
the exact leading-order commutator check, and the bicrossed coproduct.

The deformation parameter h is formal: coefficients are polynomials in h, so
"vanishes to leading order" is a statement about exact polynomial coefficients,
not numerical limits.  Normal order puts t_a before t_2 before the trig factor;
rewriting terminates because [y_a, y_2] = 2 y_2 lowers the disorder degree.

One product table holds the normal-ordering rule.  Each algebra builds, once
and on demand, dense blocks core(k1, q, m2, k2) over (t_a power, t_2 power,
relative Fourier mode): the normal form of e^{iq phi} t_a^{m2} t_2^{k2} (the
push) with t_2^{k1} moved through it in closed form,
t_2^{k1} t_a^m = (t_a - k1 lam')^m t_2^{k1}.  The product of two monomials is
a block shifted by the left t_a power and the right mode; `mono_pairs` reads
it for element, tensor and coproduct products, and the semiclassical sweep
gathers both orders of every monomial pair from the same blocks, a fixed
number of pairs (`PAIR_CHUNK`) at a time, as dense arrays with NaN-propagating
maxima.

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

from .linalg import worst_at
from .matched import MatchedPair
from .poisson import anchor_trig, circle_parameter_checks
from .trig import TrigPoly

_EPS = 1e-12

#: monomial pairs per step of the semiclassical sweep: fixed, so the sweep's
#: memory does not grow with the grid
PAIR_CHUNK = 256

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
        # the furthest X'_y moves a Fourier mode: the mode window per degree
        self._w = max((abs(n) for f in self.alpha for n in f.coeffs), default=0)
        self._push_cache: dict[tuple[int, int, int], np.ndarray] = {}
        self._blocks: dict[tuple[int, int, int, int], np.ndarray] = {}
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

    def _push(self, q: int, m: int, k: int) -> np.ndarray:
        """Normal form of e^{iq phi} t_a^m t_2^k as a dense array over
        (t_a power, t_2 power, mode - q), the mode window being
        [-w(m+k), w(m+k)] for the anchor's mode reach w."""
        cache_key = (q, m, k)
        hit = self._push_cache.get(cache_key)
        if hit is not None:
            return hit
        w = self._w
        out = np.zeros((m + 1, k + 1, 2 * w * (m + k) + 1), dtype=complex)
        if q == 0 or m == k == 0:
            out[m, k, w * (m + k)] = 1.0
        else:
            if m > 0:   # e^{iq} t_a = t_a e^{iq} - X'_a(e^{iq})
                gen, sub, raised, lower = 0, (m - 1, k), out[1:], out[:m]
            else:       # e^{iq} t_2 = t_2 e^{iq} - X'_2(e^{iq})
                gen, sub, raised, lower = 1, (0, k - 1), out[:, 1:], out[:, :k]
            width = 2 * w * (m + k - 1) + 1
            raised[..., w:w + width] += self._push(q, *sub)
            for mode, c in self.xprime_mode(gen, q).items():
                lower[..., w + mode - q:w + mode - q + width] -= c * self._push(mode, *sub)
            out[np.abs(out) <= _EPS] = 0.0
        self._push_cache[cache_key] = out
        return out

    def _block(self, k1: int, q: int, m2: int, k2: int) -> np.ndarray:
        """core(k1, q, m2, k2): normal form of t_2^{k1} e^{iq phi} t_a^{m2} t_2^{k2}
        over (t_a power, t_2 power - k1, mode - q), from the push and the closed
        form t_2^{k1} t_a^m = (t_a - k1 lam')^m t_2^{k1}.  The product of
        t_a^{m1} t_2^{k1} e^{iq phi} and t_a^{m2} t_2^{k2} e^{in2 phi} is this
        block shifted by m1 on the t_a power and by q + n2 on the mode."""
        cache_key = (k1, q, m2, k2)
        hit = self._blocks.get(cache_key)
        if hit is None:
            shift = -k1 * self.lam_rewrite
            binom = np.array([[comb(mm, j) * shift ** (mm - j) if j <= mm else 0.0
                               for mm in range(m2 + 1)] for j in range(m2 + 1)])
            hit = np.tensordot(binom, self._push(q, m2, k2), axes=1)
            hit[np.abs(hit) <= _EPS] = 0.0
            self._blocks[cache_key] = hit
        return hit

    def mono_pairs(self, left: Key, right: Key) -> list[tuple[Key, complex]]:
        """Product of two monomials as a flat (key, coefficient) list read from
        its product block, cached."""
        cache_key = (left, right)
        hit = self._pair_cache.get(cache_key)
        if hit is None:
            m1, k1, n1 = left
            m2, k2, n2 = right
            block = self._block(k1, n1, m2, k2)
            nz = np.nonzero(block)
            shift = n1 + n2 - self._w * (m2 + k2)
            hit = [((m1 + j, k1 + kk, shift + r), c) for j, kk, r, c in
                   zip(*(idx.tolist() for idx in nz), block[nz].tolist())]
            self._pair_cache[cache_key] = hit
        return hit

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


def _pair_residuals(lam: float, blocks: np.ndarray, xprime: np.ndarray,
                    a: np.ndarray, b: np.ndarray, maxmode: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading-order residual and sub-leading mass of each pair (a[i], b[i]).

    `blocks[k1, q, m2, k2]` holds core(k1, q, m2, k2) on the sweep's mode
    window, with a zero last row and column.  [A, B] = AB - BA is read from
    the blocks into a frame whose cell (u, v) is the monomial
    t_a^{min m + u} t_2^{min k + v} e^{i(n_A + n_B + r) phi}; {A, B} is
    subtracted in its top degree d_A + d_B - 1, and the rest is the O(h) tail."""
    (ma, ka, na), (mb, kb, nb) = a.T, b.T
    size, modes = blocks.shape[2], blocks.shape[1]
    m_lo, k_lo = np.minimum(ma, mb), np.minimum(ka, kb)
    m_hi, k_hi = np.maximum(ma, mb), np.maximum(ka, kb)
    cell = np.arange(size)
    rows = blocks.reshape(-1, blocks.shape[-1])   # one row per (block, j, kk)

    def product(m, k, n, m2, k2):
        """t_a^m t_2^k e^{in phi} times t_a^{m2} t_2^{k2} on the frame."""
        block = ((k * modes + n + maxmode) * size + m2) * size + k2
        j = (m_lo - m)[:, None] + cell
        kk = (k_lo - k)[:, None] + cell
        j[j < 0] = size   # the zero row
        kk[kk < 0] = size
        return rows.take(((block[:, None] * (size + 1) + j) * (size + 1))[:, :, None]
                         + kk[:, None, :], axis=0)

    comm = product(ma, ka, na, mb, kb) - product(mb, kb, nb, ma, ka)
    # {y_a, y_2} = lam y_2 and {y, f} = X'_y f, in the order poisson_sym adds them
    span = comm.shape[-1] // 2
    bracket = np.zeros((len(a), 2 * span + 1), dtype=complex)
    bracket[:, span] = lam * (ma * kb - ka * mb)
    on_a, on_b = xprime[:, na + maxmode], xprime[:, nb + maxmode]
    want_a = (bracket + ma[:, None] * on_b[0]) - mb[:, None] * on_a[0]
    want_2 = ka[:, None] * on_b[1] - kb[:, None] * on_a[1]
    for want in (want_a, want_2):
        want[np.abs(want) <= _EPS] = 0.0
    pair = np.arange(len(a))
    # a clipped cell receives zeros: with no t_a (t_2) there is no y_a (y_2) term
    comm[pair, np.maximum(m_hi - 1, 0), k_hi] -= want_a
    comm[pair, m_hi, np.maximum(k_hi - 1, 0)] -= want_2
    mag = np.abs(comm).max(axis=3)
    top = np.add.outer(cell, cell) == (m_hi + k_hi - 1)[:, None, None]
    return (np.where(top, mag, 0.0).max(axis=(1, 2)),
            np.where(top, 0.0, mag).max(axis=(1, 2)))


def semiclassical_residuals(alg: CrossedAlgebra, maxdeg: int, maxmode: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every monomial pair (A, B) up to the degree and mode bounds, with its
    (leading-order residual, sub-leading mass): arrays a_keys, b_keys, lead, tail
    in sweep order.

    The commutator of the plain quantizations, regraded in quantization units,
    must reproduce the Poisson bracket in its top degree; everything below is
    the O(h) tail (h^{d_top - d} per monomial of degree d).  [B, A] = -[A, B],
    so unordered pairs suffice; both products of a pair are read from the
    algebra's product blocks, PAIR_CHUNK pairs at a time."""
    if maxdeg < 1 or maxmode < 0:
        raise ValueError("maxdeg must be at least 1 and maxmode at least 0")
    monos = np.array([(m, k, n) for m in range(maxdeg + 1) for k in range(maxdeg + 1 - m)
                      for n in range(-maxmode, maxmode + 1)])
    degree = monos[:, 0] + monos[:, 1]
    ia, ib = np.triu_indices(len(monos))
    keep = degree[ia] + degree[ib] >= 1
    a, b = monos[ia[keep]], monos[ib[keep]]
    # the grid's blocks, zero-padded to one shape and one mode window, with a
    # zero last row and column for cells a product does not reach
    w, span, size, modes = alg._w, alg._w * maxdeg, maxdeg + 1, 2 * maxmode + 1
    blocks = np.zeros((size, modes, size, size, size + 1, size + 1, 2 * span + 1), dtype=complex)
    for k1 in range(size):
        for q in range(-maxmode, maxmode + 1):
            for m2 in range(size):
                for k2 in range(size - m2):
                    pad = span - w * (m2 + k2)
                    blocks[k1, q + maxmode, m2, k2, :m2 + 1, :k2 + 1, pad:2 * span + 1 - pad] = \
                        alg._block(k1, q, m2, k2)
    # X'_y(e^{iq phi}) for y = a, 2 on the same window
    xprime = np.zeros((2, modes, 2 * span + 1), dtype=complex)
    for gen in range(2):
        for q in range(-maxmode, maxmode + 1):
            for mode, c in alg.xprime_mode(gen, q).items():
                xprime[gen, q + maxmode, mode - q + span] = c
    lead, tail = zip(*(_pair_residuals(alg.lam, blocks, xprime, a[i:i + PAIR_CHUNK],
                                       b[i:i + PAIR_CHUNK], maxmode)
                       for i in range(0, len(a), PAIR_CHUNK)))
    return a, b, np.concatenate(lead), np.concatenate(tail)


def verify_semiclassical(alg: CrossedAlgebra, maxdeg: int, maxmode: int) -> dict:
    """Sweep all monomial pairs up to the given degree and mode bounds.

    Reports the leading-order (h^0 in quantization units) coefficient of
    [Q_h A, Q_h B]/h - Q_h({A, B}) over every pair, which must vanish, with
    the pair where it is largest, and all orders for the linear x linear and
    linear x function pairs, which must vanish exactly."""
    a, b, lead, tail = semiclassical_residuals(alg, maxdeg, maxmode)
    worst_lead, at = worst_at(lead)
    exact = (a[:, 0] + a[:, 1] <= 1) & (b[:, 0] + b[:, 1] <= 1)
    return {
        "degrees": maxdeg,
        "modes": maxmode,
        "pairs": len(a),
        "max_h0_residual": worst_lead,
        "max_exact_case_residual": float(np.max(np.concatenate((lead[exact], tail[exact])),
                                                initial=0.0)),
        "worst_pair": [a[at].tolist(), b[at].tolist()],
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
