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
and on demand, stacks of dense blocks core(k1, q, m2, k2) over (mode q, t_a
power, t_2 power, relative Fourier mode), one stack per (k1, m2, k2) over the
algebra's mode window: the normal form of e^{iq phi} t_a^{m2} t_2^{k2} (the
push, one recursion over the degree for all modes q at once) with t_2^{k1}
moved through it in closed form, t_2^{k1} t_a^m = (t_a - k1 lam')^m t_2^{k1},
one batched matmul per stack.  A request past the window widens it and the
stacks are rebuilt.  The product of two monomials is a block shifted by the
left t_a power and the right mode; `mono_pairs` reads it for the one product
of elements and tensors, and the semiclassical sweep reads both orders of
every monomial pair from the same stacks.  The sweep takes one step per
unordered pair of (t_a, t_2)-power classes: it slices the class pair's two
stacks to its modes and forms AB - BA for every mode pair as their outer
difference, as dense arrays with NaN-propagating maxima.  A step holds at
most (2 maxmode + 1)^2 (maxdeg + 1)^2 (2 w maxdeg + 1) complex numbers, w the
anchor's mode reach: 1.15 MB on the (4, 6) grid of the circle pair (w = 2),
next to 1.0 MB of block stacks and 0.23 MB of push stacks; the whole (4, 6)
sweep peaks at 4.1 MB under tracemalloc.

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
        # alpha polynomials of the anchor fields for the two generators, as
        # {mode: coefficient} maps
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
        self._w = max((abs(n) for f in self.alpha for n in f), default=0)
        # the block stacks cover the modes [-window, window]; a wider request
        # widens the window and drops every stack, to be rebuilt on its next use
        self._window = 0
        self._pushes: dict[tuple[int, int], np.ndarray] = {}
        self._block_stacks: dict[tuple[int, int, int], np.ndarray] = {}
        self._pair_cache: dict[tuple[Key, Key], list] = {}

    # -- constructors ------------------------------------------------------

    def element(self, terms: dict[Key, complex]) -> TensorElement:
        """The crossed element sum of c t_a^m t_2^k e^{in phi} over {(m, k, n): c}."""
        return TensorElement(self, 1, {(key,): c for key, c in terms.items()})

    def monomial(self, m: int, k: int, n: int) -> TensorElement:
        return self.element({(m, k, n): 1.0})

    def t_a(self) -> TensorElement:
        return self.monomial(1, 0, 0)

    def t_2(self) -> TensorElement:
        return self.monomial(0, 1, 0)

    # -- derivation coefficients --------------------------------------------

    def xprime_mode(self, gen: int, q: int) -> dict[int, complex]:
        """Fourier modes of X'_{y_gen}(e^{iq phi}) = alpha_gen * (iq e^{iq phi})."""
        out = {}
        for mode, c in self.alpha[gen].items():
            val = c * 1j * q
            if val != 0:
                out[mode + q] = out.get(mode + q, 0) + val
        return {m: c for m, c in out.items() if abs(c) > _EPS}

    # -- normal-ordered product ----------------------------------------------

    def _push_stack(self, m: int, k: int, radius: int) -> np.ndarray:
        """Normal forms of e^{iq phi} t_a^m t_2^k for q = -radius..radius, stacked
        over (q, t_a power, t_2 power, mode - q), the relative mode window being
        [-w(m+k), w(m+k)] for the anchor's mode reach w.  Degree m + k reads the
        stack of degree m + k - 1 over radius + w; a stack built over a wider
        radius is sliced."""
        hit = self._pushes.get((m, k))
        if hit is not None and len(hit) >= 2 * radius + 1:
            cut = len(hit) // 2 - radius
            return hit[cut:len(hit) - cut]
        w = self._w
        q = np.arange(-radius, radius + 1)
        out = np.zeros((len(q), m + 1, k + 1, 2 * w * (m + k) + 1), dtype=complex)
        if m == k == 0:
            out[...] = 1.0
        else:
            if m > 0:   # e^{iq} t_a = t_a e^{iq} - X'_a(e^{iq})
                gen, sub, raised, lower = 0, (m - 1, k), out[:, 1:], out[:, :m]
            else:       # e^{iq} t_2 = t_2 e^{iq} - X'_2(e^{iq})
                gen, sub, raised, lower = 1, (0, k - 1), out[:, :, 1:], out[:, :, :k]
            width = 2 * w * (m + k - 1) + 1
            below = self._push_stack(*sub, radius + w)
            raised[..., w:w + width] += below[w:w + len(q)]
            # X'_gen(e^{iq phi}) has mode q + `mode` with coefficient c iq, skipped
            # where it is negligible (`xprime_mode`)
            for mode, c in self.alpha[gen].items():
                val = c * 1j * q
                rows = np.flatnonzero(np.abs(val) > _EPS)
                lower[rows, ..., w + mode:w + mode + width] -= \
                    val[rows, None, None, None] * below[rows + w + mode]
            out[np.abs(out) <= _EPS] = 0.0
            out[radius] = 0.0   # e^{i0 phi} = 1 commutes: the identity placement
            out[radius, m, k, w * (m + k)] = 1.0
        self._pushes[(m, k)] = out
        return out

    def _block_stack(self, k1: int, m2: int, k2: int, maxmode: int) -> np.ndarray:
        """core(k1, q, m2, k2) for q = -maxmode..maxmode, stacked: the normal form
        of t_2^{k1} e^{iq phi} t_a^{m2} t_2^{k2} over (q, t_a power, t_2 power - k1,
        mode - q), from the push and the closed form
        t_2^{k1} t_a^m = (t_a - k1 lam')^m t_2^{k1}.  The product of
        t_a^{m1} t_2^{k1} e^{iq phi} and t_a^{m2} t_2^{k2} e^{in2 phi} is row q
        shifted by m1 on the t_a power and by q + n2 on the mode.

        The stack is built once over the algebra's mode window; a request past
        it widens the window to the request and drops every stack."""
        if maxmode > self._window:
            self._window = maxmode
            self._pushes.clear()
            self._block_stacks.clear()
        stack = self._block_stacks.get((k1, m2, k2))
        if stack is None:
            shift = -k1 * self.lam_rewrite
            binom = np.array([[comb(mm, j) * shift ** (mm - j) if j <= mm else 0.0
                               for mm in range(m2 + 1)] for j in range(m2 + 1)])
            push = self._push_stack(m2, k2, self._window)
            stack = np.matmul(binom, push.reshape(len(push), m2 + 1, -1)).reshape(push.shape)
            stack[np.abs(stack) <= _EPS] = 0.0
            self._block_stacks[(k1, m2, k2)] = stack
        return stack[self._window - maxmode:self._window + maxmode + 1]

    def mono_pairs(self, left: Key, right: Key) -> list[tuple[Key, complex]]:
        """Product of two monomials as a flat (key, coefficient) list read from
        its product block, cached."""
        cache_key = (left, right)
        hit = self._pair_cache.get(cache_key)
        if hit is None:
            m1, k1, n1 = left
            m2, k2, n2 = right
            block = self._block_stack(k1, m2, k2, abs(n1))[n1 + abs(n1)]
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


def _class_pair_residuals(alg: CrossedAlgebra, xprime: np.ndarray, left: tuple[int, int],
                          right: tuple[int, int], na: np.ndarray,
                          nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading-order residual and sub-leading mass of the pairs
    A = t_a^ma t_2^ka e^{i n_A phi}, B = t_a^mb t_2^kb e^{i n_B phi} with
    n_A = na[i] - maxmode and n_B = nb[i] - maxmode, for every i.

    Each order of product is a slice of one block stack over the modes of its
    left factor, AB from core(ka, n_A, mb, kb) and BA from core(kb, n_B, ma, ka),
    and [A, B] = AB - BA is their difference at each given (n_A, n_B).  The
    frame's cell (u, v) is the monomial t_a^{min m + u} t_2^{min k + v}
    e^{i(n_A + n_B + r) phi}; {A, B} is subtracted in its top degree
    ma + ka + mb + kb - 1, and the rest is the O(h) tail."""
    (ma, ka), (mb, kb) = left, right
    modes, width = xprime.shape[1:]
    span, w = width // 2, alg._w
    m_lo, k_lo, m_hi, k_hi = min(ma, mb), min(ka, kb), max(ma, mb), max(ka, kb)
    maxmode = modes // 2

    def products(m: int, k: int, m2: int, k2: int) -> np.ndarray:
        """t_a^m t_2^k e^{iq phi} times t_a^{m2} t_2^{k2}, for every mode q."""
        out = np.zeros((modes, m_hi + 1, k_hi + 1, width), dtype=complex)
        pad = span - w * (m2 + k2)
        out[:, m - m_lo:m - m_lo + m2 + 1, k - k_lo:k - k_lo + k2 + 1, pad:width - pad] = \
            alg._block_stack(k, m2, k2, maxmode)
        return out

    comm = products(ma, ka, mb, kb)[na] - products(mb, kb, ma, ka)[nb]
    # {y_a, y_2} = lam y_2, then {y, f} = X'_y f of B's mode, then of A's, the
    # order in which the bracket's biderivation adds them; over (n_A, n_B)
    bracket = np.zeros(width, dtype=complex)
    bracket[span] = alg.lam * (ma * kb - ka * mb)
    want_a = (bracket + ma * xprime[0])[None, :] - (mb * xprime[0])[:, None]
    want_2 = (ka * xprime[1])[None, :] - (kb * xprime[1])[:, None]
    for want in (want_a, want_2):
        want[np.abs(want) <= _EPS] = 0.0
    # a clipped cell receives zeros: with no t_a (t_2) there is no y_a (y_2) term
    comm[:, max(m_hi - 1, 0), k_hi] -= want_a[na, nb]
    comm[:, m_hi, max(k_hi - 1, 0)] -= want_2[na, nb]
    mag = np.abs(comm).max(axis=3)
    top = np.add.outer(np.arange(m_hi + 1), np.arange(k_hi + 1)) == m_hi + k_hi - 1
    return np.where(top, mag, 0.0).max(axis=(1, 2)), np.where(top, 0.0, mag).max(axis=(1, 2))


def semiclassical_residuals(alg: CrossedAlgebra, maxdeg: int, maxmode: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every monomial pair (A, B) up to the degree and mode bounds, with its
    (leading-order residual, sub-leading mass): arrays a_keys, b_keys, lead, tail
    in sweep order.

    The commutator of the plain quantizations, regraded in quantization units,
    must reproduce the Poisson bracket in its top degree; everything below is
    the O(h) tail (h^{d_top - d} per monomial of degree d).  [B, A] = -[A, B],
    so unordered pairs suffice.  The sweep takes one step per unordered pair
    of (t_a, t_2)-power classes, over all their mode pairs at once
    (`_class_pair_residuals`), so its memory is bounded by the grid's degree
    and mode range, not by its number of pairs."""
    if maxdeg < 1 or maxmode < 0:
        raise ValueError("maxdeg must be at least 1 and maxmode at least 0")
    classes = [(m, k) for m in range(maxdeg + 1) for k in range(maxdeg + 1 - m)]
    modes = 2 * maxmode + 1
    monos = np.array([(m, k, n) for m, k in classes for n in range(-maxmode, maxmode + 1)])
    degree = monos[:, 0] + monos[:, 1]
    ia, ib = np.triu_indices(len(monos))
    keep = degree[ia] + degree[ib] >= 1
    # X'_y(e^{iq phi}) for y = a, 2 on the sweep's mode window
    span = alg._w * maxdeg
    xprime = np.zeros((2, modes, 2 * span + 1), dtype=complex)
    for gen in range(2):
        for q in range(-maxmode, maxmode + 1):
            for mode, c in alg.xprime_mode(gen, q).items():
                xprime[gen, q + maxmode, mode - q + span] = c
    # lead and tail of monomial pair (i, j), i <= j, at [i, j]
    lead, tail = np.zeros((2,) + (len(monos),) * 2)
    all_pairs = np.indices((modes, modes)).reshape(2, -1)
    for ca, cb in zip(*np.triu_indices(len(classes))):
        if sum(classes[ca]) + sum(classes[cb]) == 0:
            continue
        na, nb = np.triu_indices(modes) if ca == cb else all_pairs
        at = (ca * modes + na, cb * modes + nb)
        lead[at], tail[at] = _class_pair_residuals(alg, xprime, classes[ca], classes[cb],
                                                   na, nb)
    return monos[ia[keep]], monos[ib[keep]], lead[ia[keep], ib[keep]], tail[ia[keep], ib[keep]]


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

    def __init__(self, alg: CrossedAlgebra):
        from .group import exp_b
        from .trig import CIRCLE_MAX_MODE, circle_angles, fit_trig

        self.alg = alg
        vals = exp_b(alg.mp, np.array([1.0]), circle_angles()).action_on_c
        # {mode: coefficient} of the matrix coefficient c_ji of the action
        self.coeff = [[fit_trig(vals[:, j, i], CIRCLE_MAX_MODE) for i in range(2)]
                      for j in range(2)]
        self._gen_cache = [self._delta_generator(0), self._delta_generator(1)]
        self._mono_cache: dict[Key, TensorElement] = {}
        self._coassoc_cache: dict[Key, dict] = {}

    def _delta_generator(self, gen: int) -> TensorElement:
        t_key = [(1, 0, 0), (0, 1, 0)][gen]
        terms = {(t_key, (0, 0, 0)): 1.0 + 0j}
        for j in range(2):
            for mode, c in self.coeff[j][gen].items():
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
