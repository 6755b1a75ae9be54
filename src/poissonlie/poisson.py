"""The multiplicative-cocycle candidate on E, its residual on sampled pairs
of points, and the anchor of the circle pair as a trig polynomial.

The right-trivialized bivector is stored as a map g -> Lambda^2 e with
e = b0 (+) b, its value at a point the antisymmetric coefficient matrix over
the e-basis; the translation factors are never materialized.  The expansion
of eta0 without group translation and the Poisson-bracket evaluator on
fiberwise-linear and base functions are test references
(`tests/references.py`)."""

from __future__ import annotations

import numpy as np

from .group import EElement, adE, exp_b
from .matched import MatchedPair
from .trig import CIRCLE_MAX_MODE, circle_angles, fit_trig


def eta0(mp: MatchedPair, g: EElement) -> np.ndarray:
    """(1/2) sum_ij <v, Ad_a [y_i, y_j]> Ad*_a psi^i ^ Ad*_a psi^j, as its
    coefficient matrix over the e-basis, exactly antisymmetric.  In the
    adapted basis v is the covector (0, v) and [y_i, y_j] a block of
    `MatchedPair.adapted`.

    For a stack of points `g`, a stack of one matrix per point; only the
    b0 x b0 block is nonzero."""
    k, m = mp.dim_c, mp.dim_b
    lead = g.v.shape[:-1]
    k_mat = g.a.coad_b0
    w = np.concatenate([np.zeros(lead + (m,)), g.v], axis=-1)
    u = w[..., None, :] @ g.a.ad                      # <v, Ad_a e_q> per point
    val = (u @ mp.adapted[m:, m:].reshape(k * k, -1).T).reshape(lead + (k, k))
    coeffs = np.zeros(lead + (k + m, k + m))
    block = k_mat @ val @ np.swapaxes(k_mat, -1, -2)
    coeffs[..., :k, :k] = 0.5 * (block - np.swapaxes(block, -1, -2))
    return coeffs


def eta_b(mp: MatchedPair, g: EElement) -> np.ndarray:
    """sum_i Ad*_a psi^i ^ P_b Ad_a y_i; one per point of a stack, as `eta0`;
    only its b0 x b and b x b0 blocks are nonzero."""
    k, m = mp.dim_c, mp.dim_b
    k_mat = g.a.coad_b0
    z = np.ascontiguousarray(g.a.ad[..., :m, m:])     # columns: b-coordinates of Ad_a y_i
    upper = k_mat @ np.swapaxes(z, -1, -2)
    lower = -(z @ np.swapaxes(k_mat, -1, -2))
    coeffs = np.zeros(g.v.shape[:-1] + (k + m, k + m))
    coeffs[..., :k, k:] = 0.5 * (upper - np.swapaxes(lower, -1, -2))
    coeffs[..., k:, :k] = 0.5 * (lower - np.swapaxes(upper, -1, -2))
    return coeffs


def eta(mp: MatchedPair, g: EElement, *, eta_b_sign: float = 1.0) -> np.ndarray:
    """eta0 + eta_b_sign * eta_b; one per point of a stack, as `eta0`.  The
    parts fill disjoint blocks, so eta_b's go into eta0's array."""
    k = mp.dim_c
    out = eta0(mp, g)
    mixed = eta_b(mp, g)
    out[..., :k, k:] = eta_b_sign * mixed[..., :k, k:]
    out[..., k:, :k] = eta_b_sign * mixed[..., k:, :k]
    return out


def cocycle_residuals(mp: MatchedPair, g: EElement, h: EElement, gh: EElement,
                      eta_b_sign: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Scaled residual of eta(gh) = eta(g) + (AdE_g (x) AdE_g) eta(h) for each
    pair of two stacks of points, gh their product (`group.e_mul`), and the
    flat e-basis index (row * dim e + column) of each pair's largest entry
    (the first NaN, if any)."""
    lhs = eta(mp, gh, eta_b_sign=eta_b_sign)
    pushed = _congruence(adE(g), eta(mp, h, eta_b_sign=eta_b_sign))
    base = eta(mp, g, eta_b_sign=eta_b_sign)
    diff = np.abs(lhs - base - pushed).reshape(len(lhs), -1)
    scale = 1.0 + np.maximum(np.maximum(_abs_max(lhs), _abs_max(base)), _abs_max(pushed))
    return diff.max(axis=1) / scale, diff.argmax(axis=1)


def _congruence(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x a^T for each matrix of two stacks; `a` is freed when this returns."""
    return a @ x @ np.swapaxes(a, 1, 2)


def _abs_max(stack: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix of a stack; NaN if it holds one."""
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


# -- the anchor on the circle ---------------------------------------------------


def circle_parameter_checks(mp: MatchedPair):
    if mp.dim_b != 1:
        raise ValueError("base functions require B isomorphic to U(1) (dim b = 1)")


def anchor_trig(mp: MatchedPair, y_coords_in_y_basis) -> dict[int, complex]:
    """Anchor coefficient alpha with a(X^L_y)(e^{i phi}) = alpha(phi) * J, as
    the {mode: coefficient} map of `trig.fit_trig`."""
    circle_parameter_checks(mp)
    a = exp_b(mp, np.array([1.0]), circle_angles())
    return fit_trig(mp.anchor(y_coords_in_y_basis, a)[:, 0], CIRCLE_MAX_MODE)
