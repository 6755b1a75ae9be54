"""Manin triples inside the complexification, the dual algebra of upper
triangular matrices, the lower-corner model of e, the Cartan-cocycle
deformations relating e, g and the compact form, and the twist element.

The Cartan involution is extended to the complexification CONJUGATE-linearly
as sigma(x) = -x*, the conjugation with respect to the compact form.  This is
the extension that restricts to the Cartan involution on the real form (fixes
k, flips p) and moves the annihilator block to the transverse lower corner;
the complex-linear extension x -> eta x eta fixes that block pointwise and
cannot give a Manin complement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import _alt3, normalize_z
from .config import ALGEBRAIC_TOL, TWIST_INNER_SCALE
from .lie import IM_TRACE, LieAlgebra, MatrixBasisSolver, from_realization, trace_pairing
from .linalg import BasedSpace, Bivector, worst


def sigma_conj(entry, m: np.ndarray) -> np.ndarray:
    """Conjugate-linear involution of sl(p+1, C) restricting to the Cartan involution.

    The compact-form conjugation x -> -x*: it fixes the block-diagonal compact
    part of the real form, acts as -1 on its symmetric part, and carries the
    upper-corner annihilator block to the lower corner."""
    return -np.conj(m.T)


@dataclass(eq=False)
class ManinTriple:
    name: str
    big: LieAlgebra                       # complexification as a real algebra
    half_a: list[np.ndarray]              # matrices
    half_b: list[np.ndarray]
    form: str = IM_TRACE


def build_gc_algebra(entry) -> LieAlgebra:
    """sl(p+1, C) as a real Lie algebra of twice the dimension."""
    mats = list(entry.g.realization) + [1j * m for m in entry.g.realization]
    labels = list(entry.g.space.labels) + [f"i*{l}" for l in entry.g.space.labels]
    return from_realization(labels, mats, pairing=IM_TRACE)


def gstar_half(entry, complex_diagonal: bool = False) -> list[np.ndarray]:
    """Basis matrices of the dual half; `complex_diagonal` is the negative control."""
    mats = list(entry.gstar.realization)
    if complex_diagonal:
        n = entry.p + 1
        extra = []
        for j in range(entry.p):
            d = np.zeros((n, n), dtype=complex)
            d[j, j] = 1j
            d[j + 1, j + 1] = -1j
            extra.append(d)
        mats = mats + extra
    return mats


def gprime_half(entry) -> list[np.ndarray]:
    """sigma(k0) (+) k: the lower-corner block together with the compact part."""
    lower = [sigma_conj(entry, m) for m in entry.psi_mats]
    k_mats = [entry.g.realization[i] for i in range(entry.mp.dim_b)]
    return lower + k_mats


def gc_compact_half(entry) -> list[np.ndarray]:
    """The compact form k (+) i p inside sl(p+1, C)."""
    k_mats = [entry.g.realization[i] for i in range(entry.mp.dim_b)]
    p_mats = [entry.g.matrix_of(row) for row in entry.cartan.parts["p"]]
    return k_mats + [1j * m for m in p_mats]


def manin_triple(entry, which: str, corrupt_gstar: bool = False) -> ManinTriple:
    big = build_gc_algebra(entry)
    gs = gstar_half(entry, complex_diagonal=corrupt_gstar)
    if which == "g":
        half_a = list(entry.g.realization)
    elif which == "gprime":
        half_a = gprime_half(entry)
    elif which == "gc":
        half_a = gc_compact_half(entry)
    else:
        raise ValueError(f"unknown half {which!r}")
    return ManinTriple(f"(gC, {which}, gstar)", big, half_a, gs)


def check_manin(mt: ManinTriple, tol: float = ALGEBRAIC_TOL) -> dict:
    """All triple axioms: isotropy, closure, complementarity, form invariance."""
    res = {}
    for name, half in (("half_a", mt.half_a), ("half_b", mt.half_b)):
        res[f"isotropy_{name}"] = worst(*(abs(trace_pairing(x, y, mt.form))
                                          for x in half for y in half))
        closure = 0.0
        solver = MatrixBasisSolver(half)
        for i in range(len(half)):
            for j in range(i + 1, len(half)):
                comm = half[i] @ half[j] - half[j] @ half[i]
                _, resid = solver.solve(comm)
                closure = worst(closure, resid)
        res[f"closure_{name}"] = closure

    dim_ok = len(mt.half_a) + len(mt.half_b) == mt.big.dim
    res["dimension_sum_ok"] = bool(dim_ok)
    if dim_ok:
        cols = [mt.big.coords_of(m) for m in mt.half_a + mt.half_b]
        t = np.column_stack(cols)
        cond = float(np.linalg.cond(t))
        res["complement_condition"] = cond
        res["complementarity_ok"] = bool(np.isfinite(cond) and cond < 1e8)
    else:
        res["complementarity_ok"] = False

    gram = np.array([[trace_pairing(x, y, mt.form) for y in mt.big.realization]
                     for x in mt.big.realization])
    inv = (np.einsum("abd,dc->abc", mt.big.structure, gram)
           + np.einsum("acd,bd->abc", mt.big.structure, gram))
    res["form_invariance"] = float(np.max(np.abs(inv)))

    res["pass"] = bool(
        res["isotropy_half_a"] <= tol and res["isotropy_half_b"] <= tol
        and res["closure_half_a"] <= tol and res["closure_half_b"] <= tol
        and res["complementarity_ok"] and res["form_invariance"] <= tol
    )
    return res


def gstar_k0_abelian_residual(entry) -> float:
    """Pairwise brackets of the last-column block of gstar: exactly zero."""
    mats = [entry.gstar.realization[i] for i in entry.gstar_k0_indices]
    return worst(*(np.max(np.abs(x @ y - y @ x)) for x in mats for y in mats))


def gprime_transport_residual(entry, e_structure: np.ndarray) -> tuple[float, float]:
    """Structure constants of gprime in the (sigma psi, x) basis vs those of e.

    Returns (residual, recorded sign): the transported constants are compared
    with +/- the e-constants and the better-matching global sign is reported.
    """
    half = gprime_half(entry)
    labels = [f"s{i}" for i in range(len(half))]
    gp = from_realization(labels, half)
    diff_plus = float(np.max(np.abs(gp.structure - e_structure)))
    diff_minus = float(np.max(np.abs(gp.structure + e_structure)))
    if diff_plus <= diff_minus:
        return diff_plus, 1.0
    return diff_minus, -1.0


def gprime_block_residual(entry) -> float:
    """[k, sigma(k0)] stays inside sigma(k0)."""
    lower = [sigma_conj(entry, m) for m in entry.psi_mats]
    solver = MatrixBasisSolver(lower)
    k_mats = [entry.g.realization[i] for i in range(entry.mp.dim_b)]
    out = 0.0
    for x in k_mats:
        for l in lower:
            _, resid = solver.solve(x @ l - l @ x)
            out = worst(out, resid)
    return out


# -- Cartan-cocycle deformations ------------------------------------------------


def phi_identification(entry) -> np.ndarray:
    """phi: k0 -> p defined by B(phi(psi), y) = <psi, y> for y in s, B = Re trace.

    Returns the p-basis coefficient matrix, columns indexed by the psi basis."""
    g = entry.g
    p_rows = entry.cartan.parts["p"]
    y_rows = entry.mp.y_basis
    k = y_rows.shape[0]
    gram = np.array([[trace_pairing(g.matrix_of(p_rows[a]), g.matrix_of(y_rows[b]), "RE_TRACE")
                      for b in range(k)] for a in range(k)])
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > 1e8:
        raise ValueError("Re-trace form is degenerate on p x s")
    # <psi^i, y_b> = delta_ib, so columns solve gram^T c = e_i
    return np.linalg.solve(gram.T, np.eye(k))


def deform_bracket(entry, sign: float, cocycle_scale: float = 1.0) -> LieAlgebra:
    """Deformed bracket on the model p x| k:
    [(u,x),(v,y)]_s = ([x,v] - [y,u], [x,y] + s [u,v]_g)."""
    g = entry.g
    p_rows = entry.cartan.parts["p"]
    phi = phi_identification(entry)
    u_rows = (p_rows.T @ phi).T                  # u_i = phi(psi^i) in g-coordinates
    b_rows = entry.mp.decomp.parts["b"]
    k, m = u_rows.shape[0], b_rows.shape[0]
    n = k + m
    u_pinv = np.linalg.pinv(u_rows.T)
    c = np.zeros((n, n, n))
    for i in range(k):
        for j in range(i + 1, k):
            w = g.bracket_coords(u_rows[i], u_rows[j])
            if not np.max(np.abs(entry.cartan.project("p", w))) <= 1e-9:
                raise ValueError("[p, p] leaves k")
            c[i, j, k:] = sign * cocycle_scale * entry.mp.b_coords(w)
            c[j, i, k:] = -c[i, j, k:]
    for a in range(m):
        for i in range(k):
            w = g.bracket_coords(b_rows[a], u_rows[i])
            c[k + a, i, :k] = u_pinv @ entry.cartan.project("p", w)
            c[i, k + a, :k] = -c[k + a, i, :k]
        for b in range(a + 1, m):
            w = g.bracket_coords(b_rows[a], b_rows[b])
            c[k + a, k + b, k:] = entry.mp.b_coords(w)
            c[k + b, k + a, k:] = -c[k + a, k + b, k:]
    labels = [f"u_{i}" for i in range(k)] + [f"x_{a}" for a in range(m)]
    return LieAlgebra(BasedSpace.make(labels), c)


def g_structure_in_model_basis(entry) -> np.ndarray:
    """Structure constants of g in the (phi(psi), b) basis."""
    g = entry.g
    phi = phi_identification(entry)
    u_rows = (entry.cartan.parts["p"].T @ phi).T
    t = np.column_stack([u_rows.T, entry.mp._B])
    t_inv = np.linalg.inv(t)
    n = g.dim
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            br = t_inv @ g.bracket_coords(t[:, i], t[:, j])
            c[i, j] = br
            c[j, i] = -br
    return c


def killing_eigenvalues(alg: LieAlgebra) -> np.ndarray:
    n = alg.dim
    ad = np.array([alg.ad_matrix_coords(np.eye(n)[i]) for i in range(n)])
    killing = np.einsum("aij,bji->ab", ad, ad)
    return np.linalg.eigvalsh(killing)


# -- cobrackets on gstar and the twist --------------------------------------------


def _gstar_dual_basis(entry, half: list[np.ndarray]) -> np.ndarray:
    """Columns: gstar-coordinates of the form-dual basis of `half`."""
    gs = entry.gstar
    pair = np.array([[trace_pairing(gs.realization[a], h, IM_TRACE)
                      for h in half] for a in range(gs.dim)])
    return np.linalg.solve(pair.T, np.eye(gs.dim))


def cobracket_on_gstar(entry, half: list[np.ndarray]) -> list[Bivector]:
    """delta_half on gstar: <delta(xi), X ^ Y> = <xi, [X, Y]_half> via Im trace."""
    gs = entry.gstar
    n = gs.dim
    w = _gstar_dual_basis(entry, half)
    brackets = [[half[a] @ half[b] - half[b] @ half[a] for b in range(n)] for a in range(n)]
    out = []
    for b_idx in range(n):
        h = np.array([[trace_pairing(gs.realization[b_idx], brackets[a][b], IM_TRACE)
                       for b in range(n)] for a in range(n)])
        out.append(Bivector(gs.space, w @ h @ w.T))
    return out


def cprime_residual(entry, delta_g: list[Bivector], delta_other: list[Bivector],
                    expected_sign: float) -> float:
    """Residual of (delta_g - delta_other)(xi) = sign * c'(xi) with
    <c'(xi), X ^ Y> = <xi, [P_p X, P_p Y]_g> for X, Y in the g basis."""
    g = entry.g
    gs = entry.gstar
    n = g.dim
    pair_gs_g = np.array([[trace_pairing(gs.realization[a], g.realization[x], IM_TRACE)
                           for x in range(n)] for a in range(n)])
    p_parts = [entry.cartan.project("p", np.eye(n)[x]) for x in range(n)]
    out = 0.0
    for idx in range(n):
        diff = (delta_g[idx] - delta_other[idx]).coeffs
        lhs = pair_gs_g.T @ diff @ pair_gs_g
        rhs = np.zeros((n, n))
        for x in range(n):
            for y in range(x + 1, n):
                br = g.bracket_coords(p_parts[x], p_parts[y])
                val = trace_pairing(gs.realization[idx], g.matrix_of(br), IM_TRACE)
                rhs[x, y] = val
                rhs[y, x] = -val
        out = worst(out, np.max(np.abs(lhs - expected_sign * rhs)))
    return out


def _wedge2_1(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(antisymmetric 2-tensor) ^ (vector) in the unnormalized embedding."""
    t = np.einsum("pq,r->pqr", c, w)
    return (t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1)))


def schouten_square(alg: LieAlgebra, s: Bivector) -> np.ndarray:
    """[s, s] as a Lambda^3 coefficient tensor, via the decomposable rule
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c."""
    n = alg.dim
    sm = s.coeffs
    out = np.zeros((n, n, n))
    nz = [(a, b) for a in range(n) for b in range(n) if sm[a, b] != 0.0]
    eye = np.eye(n)

    def wedge3(v1, v2, v3):
        return _alt3(np.einsum("p,q,r->pqr", v1, v2, v3))

    for a, b in nz:
        for c, d in nz:
            coef = 0.25 * sm[a, b] * sm[c, d]
            out += coef * (wedge3(alg.structure[a, c], eye[b], eye[d])
                           - wedge3(alg.structure[a, d], eye[b], eye[c])
                           - wedge3(alg.structure[b, c], eye[a], eye[d])
                           + wedge3(alg.structure[b, d], eye[a], eye[c]))
    return out


def gerstenhaber_d(alg_dim: int, delta: list[Bivector], s: Bivector) -> np.ndarray:
    """d s for d extending delta as a degree-1 derivation: d(a^b) = delta(a)^b - a^delta(b)."""
    n = alg_dim
    sm = s.coeffs
    eye = np.eye(n)
    out = np.zeros((n, n, n))
    # a ^ delta(b) = delta(b) ^ a for a 1-form against a 2-form, so
    # d(a^b) = delta(a)^b - delta(b)^a
    for a in range(n):
        for b in range(n):
            if sm[a, b] == 0.0:
                continue
            out += 0.5 * sm[a, b] * (_wedge2_1(delta[a].coeffs, eye[b])
                                     - _wedge2_1(delta[b].coeffs, eye[a]))
    return out


def twist_element(entry, scale: float = TWIST_INNER_SCALE,
                  rotate: np.ndarray | None = None) -> Bivector:
    """s = sum_j (J y_j) (x) y_j in Lambda^2 gstar via the inner-product flat map.

    (y_j) is an orthonormal basis of p for inner(u, v) = scale * Re tr(uv);
    `rotate` replaces it by another orthonormal basis (basis-independence tests)."""
    g = entry.g
    gs = entry.gstar
    p_rows = entry.cartan.parts["p"]
    k = p_rows.shape[0]
    gram = scale * np.array(
        [[trace_pairing(g.matrix_of(p_rows[a]), g.matrix_of(p_rows[b]), "RE_TRACE")
          for b in range(k)] for a in range(k)])
    chol = np.linalg.cholesky(gram)
    onb = np.linalg.solve(chol, p_rows)          # rows: orthonormal basis of p
    if rotate is not None:
        onb = rotate @ onb
    z = normalize_z(entry)
    ad_z = g.ad_matrix_coords(z)
    n = g.dim
    pair_gs_g = np.array([[trace_pairing(gs.realization[a], g.realization[x], IM_TRACE)
                           for x in range(n)] for a in range(n)])

    def flat(u_coords: np.ndarray) -> np.ndarray:
        # xi in gstar with Im tr(xi x) = inner(u, P_p x) for all x in g
        rhs = scale * np.array(
            [trace_pairing(g.matrix_of(u_coords),
                           g.matrix_of(entry.cartan.project("p", np.eye(n)[x])), "RE_TRACE")
             for x in range(n)])
        return np.linalg.solve(pair_gs_g.T, rhs)

    s_mat = np.zeros((gs.dim, gs.dim))
    for j in range(k):
        s_mat += np.outer(flat(ad_z @ onb[j]), flat(onb[j]))
    asym = float(np.max(np.abs(s_mat + s_mat.T)))
    if not asym <= 1e-9:
        raise ValueError(f"twist element not antisymmetric (residual {asym:.3e})")
    return Bivector(gs.space, s_mat)


def twist_check(entry, scale: float = TWIST_INNER_SCALE, s_scale: float = 1.0,
                rotate: np.ndarray | None = None) -> dict:
    """(i) antisymmetry of s, (ii) (1/2)[s, s] + d s = 0 with d from delta_gprime,
    (iii) delta_g = delta_gprime + xi.s."""
    gs = entry.gstar
    s = twist_element(entry, scale=scale, rotate=rotate)
    if s_scale != 1.0:
        s = s_scale * s
    delta_g = cobracket_on_gstar(entry, list(entry.g.realization))
    delta_gp = cobracket_on_gstar(entry, gprime_half(entry))

    mc = 0.5 * schouten_square(gs, s) + gerstenhaber_d(gs.dim, delta_gp, s)
    mc_residual = float(np.max(np.abs(mc)))

    relation = 0.0
    n = gs.dim
    for idx in range(n):
        a = gs.ad_matrix_coords(np.eye(n)[idx])
        twisted = delta_gp[idx].coeffs + a @ s.coeffs + s.coeffs @ a.T
        relation = worst(relation, np.max(np.abs(delta_g[idx].coeffs - twisted)))
    return {
        "maurer_cartan_residual": mc_residual,
        "twist_relation_residual": relation,
        "pass": bool(worst(mc_residual, relation) <= ALGEBRAIC_TOL),
    }
