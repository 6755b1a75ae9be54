"""Group-level machinery: matrix elements of B, Ad/Ad*, the semidirect product
E = b0 x| B with its product, inverse and adjoint representation.

Elements of B are produced as short words of exponentials of b, which keeps all
sampling in the identity component where the algebraic identities are global.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import FD_STEP
from .linalg import Rng, finite_diff
from .matched import MatchedPair


@dataclass(eq=False)
class GroupElement:
    pair: MatchedPair
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("group element must be a square matrix")
        if not abs(np.linalg.det(m)) >= 1e-12:
            raise ValueError("group element matrix is singular")
        object.__setattr__(self, "matrix", m)
        self._ad = None
        self._inv = None

    def inverse(self) -> "GroupElement":
        if self._inv is None:
            self._inv = GroupElement(self.pair, np.linalg.inv(self.matrix))
            self._inv._inv = self
        return self._inv

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.pair, self.matrix @ other.matrix)


def identity_element(mp: MatchedPair) -> GroupElement:
    n = mp.g.realization[0].shape[0]
    return GroupElement(mp, np.eye(n, dtype=complex))


def exp_b(mp: MatchedPair, xb: np.ndarray, t: float = 1.0) -> GroupElement:
    """exp(t X) for X given by b-basis coordinates, via scipy's Pade expm."""
    if mp.g.realization is None:
        raise ValueError("matched pair has no matrix realization")
    x = mp.b_matrix_of(np.asarray(xb, dtype=float))
    return GroupElement(mp, scipy.linalg.expm(t * x))


def adjoint_matrix(mp: MatchedPair, a: GroupElement) -> np.ndarray:
    """Ad(a) on g-coordinates, with membership validation: Ad(a) must preserve b."""
    if a._ad is not None:
        return a._ad
    g = mp.g
    inv = np.linalg.inv(a.matrix)
    conjugated = np.einsum("ij,njk,kl->nil", a.matrix, np.array(g.realization), inv)
    ad, resid = g._solver.solve_many(conjugated)
    if not resid <= 1e-7:
        raise ValueError(f"element conjugation leaves the algebra (residual {resid:.3e})")
    leak = np.max(np.abs((mp._T_inv @ ad @ mp._B)[mp.dim_b:]))
    if not leak <= 1e-7:
        raise ValueError(f"element does not normalize b (leak {leak:.3e}); not in B")
    a._ad = ad
    return ad


def coadjoint_matrix(mp: MatchedPair, a: GroupElement) -> np.ndarray:
    """Ad*(a) = Ad(a^{-1})^T on dual coordinates, a left action."""
    return adjoint_matrix(mp, a.inverse()).T


@dataclass(eq=False)
class EElement:
    """Point (v, a) of E = b0 x| B: v in psi-coordinates, a in B."""

    pair: MatchedPair
    v: np.ndarray
    a: GroupElement

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.pair.dim_c,):
            raise ValueError("v must be a b0-coordinate vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("v coordinates must be finite")
        object.__setattr__(self, "v", v)


def e_identity(mp: MatchedPair) -> EElement:
    return EElement(mp, np.zeros(mp.dim_c), identity_element(mp))


def e_element_to_json_dict(g: EElement) -> dict:
    """Serialization for report reproduction: v coordinates plus re/im matrix parts."""
    return {
        "v": g.v.tolist(),
        "a": {"re": g.a.matrix.real.tolist(), "im": g.a.matrix.imag.tolist()},
    }


def e_element_from_json_dict(mp: MatchedPair, doc: dict) -> EElement:
    mat = (np.asarray(doc["a"]["re"], dtype=float)
           + 1j * np.asarray(doc["a"]["im"], dtype=float))
    return EElement(mp, np.asarray(doc["v"], dtype=float), GroupElement(mp, mat))


def e_mul(g: EElement, h: EElement) -> EElement:
    if g.pair is not h.pair:
        raise ValueError("elements belong to different pairs")
    mp = g.pair
    v = g.v + mp.coadjoint_on_b0(g.a) @ h.v
    return EElement(mp, v, g.a @ h.a)


def e_inv(g: EElement) -> EElement:
    mp = g.pair
    a_inv = g.a.inverse()
    return EElement(mp, -(mp.coadjoint_on_b0(a_inv) @ g.v), a_inv)


def adE(g: EElement) -> np.ndarray:
    """Adjoint matrix of E on e = b0 (+) b coordinates.

    Block form [[Ad*_a|b0, x -> -ad*(Ad_a x)(v)], [0, Ad_a|b]]; the mixed block
    realizes the conjugated-curve parametrization and is pinned by
    the finite-difference conjugation oracle.
    """
    mp = g.pair
    k, m = mp.dim_c, mp.dim_b
    ad = adjoint_matrix(mp, g.a)
    k_block = mp._Y.T @ adjoint_matrix(mp, g.a.inverse()).T @ mp._Psi
    b_block = (mp._T_inv @ ad @ mp._B)[:m]
    w = mp.b0_to_gstar(g.v)
    mix = np.empty((k, m))
    for j in range(m):
        z = ad @ mp._B[:, j]
        mix[:, j] = -mp.gstar_to_b0(mp.g.coad_matrix_coords(z) @ w)
    out = np.zeros((k + m, k + m))
    out[:k, :k] = k_block
    out[:k, k:] = mix
    out[k:, k:] = b_block
    return out


def sample_group_element(mp: MatchedPair, rng: Rng, max_word: int = 3) -> GroupElement:
    """Random word of exponentials of b with coefficients in [-1, 1]."""
    length = rng.integers(1, max_word + 1)
    a = identity_element(mp)
    for _ in range(length):
        a = a @ exp_b(mp, rng.uniform(-1.0, 1.0, mp.dim_b))
    return a


def sample_e_element(mp: MatchedPair, rng: Rng, radius: float = 1.0) -> EElement:
    return EElement(mp, rng.uniform(-radius, radius, mp.dim_c),
                    sample_group_element(mp, rng))


def adE_fd(g: EElement, step: float = FD_STEP) -> np.ndarray:
    """Finite-difference oracle: differentiate g (curve) g^{-1} through e_mul/e_inv."""
    mp = g.pair
    k, m = mp.dim_c, mp.dim_b
    g_inv = e_inv(g)
    out = np.zeros((k + m, k + m))

    def conj(curve_el):
        return e_mul(e_mul(g, curve_el), g_inv)

    for i in range(k):
        def v_curve(t, i=i):
            el = EElement(mp, t * np.eye(k)[i], identity_element(mp))
            return conj(el).v

        out[:k, i] = finite_diff(v_curve, 0.0, step)
        # B-part of the conjugated curve stays at the identity for b0 directions

    for j in range(m):
        xb = np.eye(m)[j]

        def v_curve(t, xb=xb):
            return conj(EElement(mp, np.zeros(k), exp_b(mp, xb, t))).v

        def a_curve(t, xb=xb):
            mat = conj(EElement(mp, np.zeros(k), exp_b(mp, xb, t))).a.matrix
            return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

        out[:k, k + j] = finite_diff(v_curve, 0.0, step)
        flat = finite_diff(a_curve, 0.0, step)
        d = mp.g.realization[0].shape[0]
        tangent = flat[: d * d].reshape(d, d) + 1j * flat[d * d:].reshape(d, d)
        out[k:, k + j] = mp.b_coords(mp.g.coords_of(tangent, tol=1e-4))
    return out
