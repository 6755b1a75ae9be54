"""The multiplicative-cocycle candidate on E and the Poisson bracket evaluator.

The right-trivialized bivector is stored as a map g -> Lambda^2 e with
e = b0 (+) b; the translation factors are never materialized.  The bracket
evaluator covers the function classes the construction is defined on:
fiberwise-linear functions of sections and pullbacks of base functions
(trig polynomials when B is the circle)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group import SAMPLE_BLOCK, EElement, adE, draw_words, e_element_to_json_dict, e_mul, exp_b
from .linalg import Bivector, Rng, worst_at
from .matched import MatchedPair
from .trig import TrigPoly, fit_trig


def eta0(mp: MatchedPair, g: EElement) -> Bivector:
    """(1/2) sum_ij <v, Ad_a [y_i, y_j]> Ad*_a psi^i ^ Ad*_a psi^j.

    For a stack of points `g` the Bivector holds one coefficient matrix per point."""
    k, m = mp.dim_c, mp.dim_b
    lead = g.v.shape[:-1]
    k_mat = g.a.coad_b0                 # first, so Ad_a comes from the same pass
    u = (g.v @ mp._Psi.T)[..., None, :] @ g.a.ad     # <v, Ad_a e_q> per point
    val = (u @ mp.c_brackets.reshape(k * k, -1).T).reshape(lead + (k, k))
    coeffs = np.zeros(lead + (k + m, k + m))
    coeffs[..., :k, :k] = k_mat @ val @ np.swapaxes(k_mat, -1, -2)
    return Bivector(mp.e_space, coeffs)


def eta_b(mp: MatchedPair, g: EElement) -> Bivector:
    """sum_i Ad*_a psi^i ^ P_b Ad_a y_i; one per point of a stack, as `eta0`."""
    k, m = mp.dim_c, mp.dim_b
    k_mat = g.a.coad_b0
    z = (mp._T_inv @ g.a.ad @ mp._Y)[..., :m, :]      # columns: b-coordinates of Ad_a y_i
    coeffs = np.zeros(g.v.shape[:-1] + (k + m, k + m))
    coeffs[..., :k, k:] = k_mat @ np.swapaxes(z, -1, -2)
    coeffs[..., k:, :k] = -(z @ np.swapaxes(k_mat, -1, -2))
    return Bivector(mp.e_space, coeffs)


def eta(mp: MatchedPair, g: EElement, *, eta_b_sign: float = 1.0) -> Bivector:
    """eta0 + eta_b_sign * eta_b; one per point of a stack, as `eta0`."""
    return eta0(mp, g) + eta_b_sign * eta_b(mp, g)


def eta_alternative(mp: MatchedPair, g: EElement) -> Bivector:
    """Expansion of eta0 without group translation of the wedge frame:
    (1/2) <v, [y_i, y_j]> psi^i ^ psi^j  -  Ad*_a psi^i ^ ad*(P_b Ad_a y_i)(v)."""
    table = mp.c_brackets
    k, m = mp.dim_c, mp.dim_b
    w = mp.b0_to_gstar(g.v)
    val = np.einsum("p,ijp->ij", w, table)
    coeffs = np.zeros((k + m, k + m))
    coeffs[:k, :k] = val
    k_mat = g.a.coad_b0
    ad = g.a.ad
    for i in range(k):
        x_b = mp.decomp.project("b", ad @ mp.y_basis[i])
        t_i = mp.gstar_to_b0(mp.g.coad_matrix_coords(x_b) @ w)
        u_i = k_mat[:, i]
        coeffs[:k, :k] -= np.outer(u_i, t_i) - np.outer(t_i, u_i)
    return Bivector(mp.e_space, coeffs)


def verify_cocycle(mp: MatchedPair, samples: int, rng: Rng, radius: float = 1.0,
                   eta_b_sign: float = 1.0) -> dict:
    """Max scaled residual of eta(gh) = eta(g) + (AdE_g (x) AdE_g) eta(h).

    Samples run in stacks of SAMPLE_BLOCK (g, h) pairs.  The record's witness
    names the sample with the worst residual (the first NaN, if any): its
    index, the e-basis wedge of its largest entry, g and h."""
    if samples < 1:
        raise ValueError("need at least one sample")
    labels = mp.e_space.labels
    resids, witnesses = [], []
    words = draw_words(mp, rng, 2 * samples, radius=radius)    # g, h, g, h, ...
    for start in range(0, samples, SAMPLE_BLOCK):
        count = min(SAMPLE_BLOCK, samples - start)
        gh = words.e_elements(2 * start, 2 * (start + count))
        g, h = gh[0::2], gh[1::2]
        lhs = eta(mp, e_mul(g, h), eta_b_sign=eta_b_sign).coeffs
        a = adE(g)
        pushed = a @ eta(mp, h, eta_b_sign=eta_b_sign).coeffs @ np.swapaxes(a, 1, 2)
        base = eta(mp, g, eta_b_sign=eta_b_sign).coeffs
        diff = np.abs(lhs - base - pushed).reshape(count, -1)
        scale = 1.0 + np.maximum(np.maximum(_abs_max(lhs), _abs_max(base)), _abs_max(pushed))
        block = diff.max(axis=1) / scale
        _, i = worst_at(block)
        row, col = divmod(int(np.argmax(diff[i])), len(labels))
        witnesses.append((start + i, f"{labels[row]}^{labels[col]}", g[i], h[i]))
        resids.append(block)
    out, at = worst_at(np.concatenate(resids))
    sample, part, g_worst, h_worst = witnesses[at // SAMPLE_BLOCK]
    return {
        "pair": mp.name,
        "seed": rng.seed,
        "max_residual": out,
        "witness": {"worst_sample": sample, "worst_part": part,
                    "g": e_element_to_json_dict(g_worst),
                    "h": e_element_to_json_dict(h_worst)},
    }


def _abs_max(stack: np.ndarray) -> np.ndarray:
    """max |entry| of each matrix of a stack; NaN if it holds one."""
    return np.abs(stack).reshape(len(stack), -1).max(axis=1)


# -- Poisson bracket on fiberwise-linear and base functions -------------------


@dataclass(frozen=True)
class LinearFn:
    """ytilde for y in c, given by y-basis coordinates."""

    y: tuple

    @staticmethod
    def make(coords) -> "LinearFn":
        return LinearFn(tuple(float(t) for t in coords))


@dataclass(frozen=True)
class BaseFn:
    """Pullback of a trig polynomial on B = U(1)."""

    f: TrigPoly


def circle_parameter_checks(mp: MatchedPair):
    if mp.dim_b != 1:
        raise ValueError("base functions require B isomorphic to U(1) (dim b = 1)")


def anchor_trig(mp: MatchedPair, y_coords_in_y_basis, max_mode: int = 4,
                samples: int = 32) -> TrigPoly:
    """Anchor coefficient alpha with a(X^L_y)(e^{i phi}) = alpha(phi) * J."""
    circle_parameter_checks(mp)
    y = mp._Y @ np.asarray(y_coords_in_y_basis, dtype=float)
    phi = 2.0 * np.pi * np.arange(samples) / samples
    return fit_trig(mp.anchor(y, exp_b(mp, np.array([1.0]), phi))[:, 0], max_mode)


def vector_field_on_base(mp: MatchedPair, y_coords, f: TrigPoly) -> TrigPoly:
    """The anchor field applied to f: alpha_y(phi) * df/dphi."""
    return anchor_trig(mp, y_coords) * f.derivative()


def poisson_bracket(mp: MatchedPair, f1, f2):
    """Bracket rules: {y1~, y2~} = [y1, y2]~, {y~, f} = anchor-derivative, {f, f} = 0."""
    if isinstance(f1, LinearFn) and isinstance(f2, LinearFn):
        br = mp.g.bracket_coords(mp._Y @ np.array(f1.y), mp._Y @ np.array(f2.y))
        return LinearFn.make(mp.c_coords(br))
    if isinstance(f1, LinearFn) and isinstance(f2, BaseFn):
        return BaseFn(vector_field_on_base(mp, np.array(f1.y), f2.f))
    if isinstance(f1, BaseFn) and isinstance(f2, LinearFn):
        return BaseFn((-1.0) * vector_field_on_base(mp, np.array(f2.y), f1.f))
    if isinstance(f1, BaseFn) and isinstance(f2, BaseFn):
        return BaseFn(TrigPoly())
    raise ValueError("unsupported function class for the Poisson evaluator")


def e2_plus_brackets(mp: MatchedPair) -> dict:
    """Brackets pushed to the rotation group double quotient via theta = 2 phi.

    Returns the three displayed brackets in the theta variable plus the
    (V1, V2) = (-ya~, y2~) relabelling.
    """
    circle_parameter_checks(mp)
    y_a = LinearFn.make([1.0, 0.0])
    y_2 = LinearFn.make([0.0, 1.0])
    e_theta = BaseFn(TrigPoly.mode(2))   # e^{i theta} = e^{2 i phi}
    lin = poisson_bracket(mp, y_a, y_2)
    br_a = poisson_bracket(mp, y_a, e_theta).f.halve_modes()
    br_2 = poisson_bracket(mp, y_2, e_theta).f.halve_modes()
    return {
        "lin_lin": lin,                       # expected 2 * y2~
        "a_base_theta": br_a,                 # expected 2 i sin(theta) e^{i theta}
        "two_base_theta": br_2,               # expected 2 i (1 - cos theta) e^{i theta}
        "relabel": {"V1": ("-", "ya"), "V2": ("+", "y2")},
        "omega": -2.0,
    }
