"""Ordered-monomial quantization of the circle pair: the crossed algebra of the
two solvable generators over trig polynomials and its tensor powers, the exact
leading-order commutator check, and the bicrossed coproduct.

No formal h is stored: coefficients are complex numbers.  The graded
quantization Q_h maps a degree-d monomial to its ordered product times h^d, so
in quantization units [Q_h A, Q_h B]/h - Q_h({A, B}) has h^0 coefficient equal
to the degree d_A + d_B - 1 part of [A, B] - {A, B}, and every lower degree is
O(h).  "Vanishes to leading order" is thus decided exactly by degree, not by a
numerical limit.  Normal order puts t_a before t_2 before the trig factor;
rewriting terminates because [y_a, y_2] = 2 y_2 lowers the disorder degree.

One product table holds the normal-ordering rule.  Each algebra builds, once
and on demand, dense blocks core(k1, q, m2, k2) over (t_a power, t_2 power,
relative Fourier mode): the normal form of e^{iq phi} t_a^{m2} t_2^{k2} (the
push) with t_2^{k1} moved through it in closed form,
t_2^{k1} t_a^m = (t_a - k1 lam')^m t_2^{k1}.  The product of two monomials is
a block shifted by the left t_a power and the right mode; `mono_pairs` reads
it for the one product of elements and tensors, and the semiclassical sweep
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

from .linalg import worst, worst_at
from .matched import MatchedPair
from .poisson import anchor_trig, circle_parameter_checks

_EPS = 1e-12

#: monomial pairs per step of the semiclassical sweep: fixed, so the sweep's
#: memory does not grow with the grid
PAIR_CHUNK = 256

Key = tuple[int, int, int]  # (t_a power, t_2 power, Fourier mode)


@dataclass(eq=False)
class TensorElement:
    """Element of the `legs`-fold tensor power of the crossed algebra: a finite
    sum of tensor products of normal-ordered monomials t_a^m t_2^k e^{in phi},
    keyed by one monomial per leg.  A crossed element is the one-leg case."""

    algebra: "CrossedAlgebra"
    legs: int
    terms: dict[tuple[Key, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        # `not <=` keeps a NaN coefficient, so that a residual reports it
        self.terms = {k: complex(v) for k, v in self.terms.items() if not abs(v) <= _EPS}

    def add(self, other: "TensorElement", scale: complex = 1.0) -> "TensorElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + scale * v
        return TensorElement(self.algebra, self.legs, out)

    def mul(self, other: "TensorElement") -> "TensorElement":
        return self.algebra.mul(self, other)

    def commutator(self, other: "TensorElement") -> "TensorElement":
        return self.mul(other).add(other.mul(self), scale=-1.0)

    def max_abs(self) -> float:
        return worst(*(abs(c) for c in self.terms.values()))

    def residual(self, other: "TensorElement") -> float:
        return self.add(other, scale=-1.0).max_abs()


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
        br = mp.c_structure[0, 1]
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

    def element(self, terms: dict[Key, complex]) -> TensorElement:
        """The crossed element sum of c t_a^m t_2^k e^{in phi} over {(m, k, n): c}."""
        return TensorElement(self, 1, {(key,): c for key, c in terms.items()})

    def one(self) -> TensorElement:
        return self.element({(0, 0, 0): 1.0})

    def monomial(self, m: int, k: int, n: int, coeff: complex = 1.0) -> TensorElement:
        return self.element({(m, k, n): coeff})

    def t_a(self) -> TensorElement:
        return self.monomial(1, 0, 0)

    def t_2(self) -> TensorElement:
        return self.monomial(0, 1, 0)

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

    def mul(self, a: TensorElement, b: TensorElement) -> TensorElement:
        """The product of two elements of the same tensor power, leg by leg.

        For each pair of terms every leg but the last expands into a list of
        (keys, coefficient) heads, and the last leg's monomial product adds
        straight into the result, which keeps one-leg products cheap."""
        out: dict[tuple[Key, ...], complex] = {}
        pairs = self.mono_pairs
        rights = [(kb[:-1], kb[-1], cb) for kb, cb in b.terms.items()]
        for ka, ca in a.terms.items():
            head_a, last_a = ka[:-1], ka[-1]
            for head_b, last_b, cb in rights:
                heads = [((), ca * cb)]
                for la, lb in zip(head_a, head_b):
                    leg = pairs(la, lb)
                    heads = [(keys + (key,), c * cc) for keys, c in heads for key, cc in leg]
                last = pairs(last_a, last_b)
                for keys, c in heads:
                    for key, cc in last:
                        full = keys + (key,)
                        out[full] = out.get(full, 0) + c * cc
        return TensorElement(self, a.legs, out)


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
        return worst(*(abs(c) for c in self.terms.values()))

    def residual(self, other: "SymElement") -> float:
        return self.add(other, scale=-1.0).max_abs()


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


def _pair_residuals(lam: float, rows: np.ndarray, row_of: np.ndarray, xprime: np.ndarray,
                    a: np.ndarray, b: np.ndarray, maxmode: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading-order residual and sub-leading mass of each pair (a[i], b[i]).

    `rows[row_of[k1, q, m2, k2, j, kk]]` is cell (j, kk) of core(k1, q, m2, k2)
    on the sweep's mode window; cells outside the block, and the last row and
    column, map to the zero row.  [A, B] = AB - BA is read from the blocks
    into a frame whose cell (u, v) is the monomial
    t_a^{min m + u} t_2^{min k + v} e^{i(n_A + n_B + r) phi}; {A, B} is
    subtracted in its top degree d_A + d_B - 1, and the rest is the O(h) tail."""
    (ma, ka, na), (mb, kb, nb) = a.T, b.T
    size, modes = row_of.shape[2], row_of.shape[1]
    m_lo, k_lo = np.minimum(ma, mb), np.minimum(ka, kb)
    m_hi, k_hi = np.maximum(ma, mb), np.maximum(ka, kb)
    cell = np.arange(size)
    row_of = row_of.reshape(-1)   # one entry per (block, j, kk)

    def product(m, k, n, m2, k2):
        """t_a^m t_2^k e^{in phi} times t_a^{m2} t_2^{k2} on the frame."""
        block = ((k * modes + n + maxmode) * size + m2) * size + k2
        j = (m_lo - m)[:, None] + cell
        kk = (k_lo - k)[:, None] + cell
        j[j < 0] = size   # the zero row
        kk[kk < 0] = size
        return rows.take(row_of.take(((block[:, None] * (size + 1) + j) * (size + 1))[:, :, None]
                                     + kk[:, None, :]), axis=0)

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
    # the grid's blocks as rows on one mode window, one per cell a block has,
    # in (k1, q, m2, k2, j, kk) order, and the row of every such index; row 0
    # is zero and stands for the cells a product does not reach.  A dense
    # (k1, q, m2, k2, j, kk) array would hold 13x the rows (16 MB at degree 4).
    w, span, size, modes = alg._w, alg._w * maxdeg, maxdeg + 1, 2 * maxmode + 1
    m, k, j, kk = np.ogrid[:size, :size, :size + 1, :size + 1]   # (m2, k2, j, kk)
    has = (m + k <= maxdeg) & (j <= m) & (kk <= k)
    row_of = np.zeros((size, modes) + has.shape, dtype=np.intp)
    row_of[:, :, has] = np.arange(1, 1 + size * modes * int(has.sum())).reshape(size, modes, -1)
    rows = np.zeros((1 + row_of.max(), 2 * span + 1), dtype=complex)
    top = 1
    for k1 in range(size):
        for q in range(-maxmode, maxmode + 1):
            for m2 in range(size):
                for k2 in range(size - m2):
                    pad, n = span - w * (m2 + k2), (m2 + 1) * (k2 + 1)
                    rows[top:top + n, pad:2 * span + 1 - pad] = \
                        alg._block(k1, q, m2, k2).reshape(n, -1)
                    top += n
    # X'_y(e^{iq phi}) for y = a, 2 on the same window
    xprime = np.zeros((2, modes, 2 * span + 1), dtype=complex)
    for gen in range(2):
        for q in range(-maxmode, maxmode + 1):
            for mode, c in alg.xprime_mode(gen, q).items():
                xprime[gen, q + maxmode, mode - q + span] = c
    lead, tail = zip(*(_pair_residuals(alg.lam, rows, row_of, xprime, a[i:i + PAIR_CHUNK],
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
        self._mono_cache: dict[Key, TensorElement] = {}
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
        """Delta of one monomial, cached; no element changes after it is
        built, so the cached one is handed out as is."""
        hit = self._mono_cache.get(key)
        if hit is None:
            m, k, n = key
            if m > 0:
                hit = self._gen_cache[0].mul(self._delta_monomial((m - 1, k, n)))
            elif k > 0:
                hit = self._gen_cache[1].mul(self._delta_monomial((0, k - 1, n)))
            else:
                hit = TensorElement(self.alg, 2, {((0, 0, n), (0, 0, n)): 1.0})
            self._mono_cache[key] = hit
        return hit

    def apply(self, x: TensorElement) -> TensorElement:
        """Delta on a crossed element; monomials map multiplicatively."""
        out = TensorElement(self.alg, 2, {})
        for (key,), c in x.terms.items():
            out = out.add(self._delta_monomial(key), scale=c)
        return out

    def apply_leg(self, x: TensorElement, leg: int) -> TensorElement:
        """(Delta (x) id) or (id (x) Delta) on a two-leg element."""
        out: dict[tuple[Key, Key, Key], complex] = {}
        for keys, c in x.terms.items():
            for (k1, k2), cc in self._delta_monomial(keys[leg]).terms.items():
                new = (k1, k2, keys[1]) if leg == 0 else (keys[0], k1, k2)
                out[new] = out.get(new, 0) + c * cc
        return TensorElement(self.alg, 3, out)

    def coassociativity_residual(self, x: TensorElement) -> float:
        """| (Delta (x) id) Delta x - (id (x) Delta) Delta x |, monomial-cached."""
        acc: dict[tuple[Key, Key, Key], complex] = {}
        for (key,), c in x.terms.items():
            if key not in self._coassoc_cache:
                dx = self._delta_monomial(key)
                diff = self.apply_leg(dx, 0).add(self.apply_leg(dx, 1), scale=-1.0)
                self._coassoc_cache[key] = diff.terms
            for kk, cc in self._coassoc_cache[key].items():
                acc[kk] = acc.get(kk, 0) + c * cc
        return worst(*(abs(v) for v in acc.values()))

    def homomorphism_residual(self, x: TensorElement, y: TensorElement) -> float:
        lhs = self.apply(x.mul(y))
        rhs = self.apply(x).mul(self.apply(y))
        return lhs.residual(rhs)
