"""Manin triples inside the complexification, the dual algebra of upper
triangular matrices, the lower-corner model of e, the Cartan-cocycle
deformations relating e, g and the compact form, and the twist element.

Each half of a Manin triple (g, gprime, gstar), and the compact form, is a
realized algebra, built once: the re-expansion of its commutators gives its
table and its closure, and nothing forms those commutators again.  The
complexification g_C's table is g's, laid into four slices
(`build_gc_algebra`), and its matrices are checked against it a bounded
number of commutators at a time.
`check_manin` makes one pass per half, the k0 residual reads gstar's table,
and each cobracket on gstar reads its half's table through one Gram matrix
(`cobracket_on_gstar`).  The deformations are slices of one table: the
structure constants of g in the model basis (phi(psi^1)..phi(psi^k),
x_1..x_m) of p then k, built once per catalog entry
(`CatalogEntry.model_table`).  The twist element and the cobrackets on
gstar are plain arrays: s its antisymmetric coefficient matrix over the
gstar basis, a cobracket laid out like `bialgebra.delta_direct`.

The Cartan involution is extended to the complexification CONJUGATE-linearly
as sigma(x) = -x*, the conjugation with respect to the compact form.  This is
the extension that restricts to the Cartan involution on the real form (fixes
k, flips p) and moves the annihilator block to the transverse lower corner;
the complex-linear extension x -> eta x eta fixes that block pointwise and
cannot give a Manin complement."""

from __future__ import annotations

import numpy as np

from .bialgebra import _alt3
from .config import TWIST_INNER_SCALE
from .lie import (IM_TRACE, RE_TRACE, LieAlgebra, meet_runs, nonzero_runs, structure_in_basis,
                  trace_gram, worst_key_sum)


def sigma_conj(m: np.ndarray) -> np.ndarray:
    """Conjugate-linear involution of sl(p+1, C) restricting to the Cartan involution.

    The compact-form conjugation x -> -x*: it fixes the block-diagonal compact
    part of the real form, acts as -1 on its symmetric part, and carries the
    upper-corner annihilator block to the lower corner."""
    return -np.conj(m.T)


def build_gc_algebra(entry) -> LieAlgebra:
    """sl(p+1, C) as a real Lie algebra of twice the dimension, the
    realification of g (x) C in the basis (X_1..X_n, iX_1..iX_n) of g's
    matrices and i times them.

    The table is g's exact table c in four slices: [X_a, X_b] = c,
    [X_a, iX_b] = [iX_a, X_b] = i c and [iX_a, iX_b] = -c.  So each Jacobiator
    entry is +- one of g's, and the algebra keeps g's Jacobi result.  The
    table is still held to the matrices: `LieAlgebra` checks it in its one
    pass over their commutators (`lie.commutator_pass`), a bounded number at
    a time, and names the first commutator that misses."""
    g = entry.g
    n, c = g.dim, g.structure
    table = np.zeros((2 * n,) * 3)
    table[:n, :n, :n] = c
    table[:n, n:, n:] = c
    table[n:, :n, n:] = c
    table[n:, n:, :n] = 0.0 - c      # no negative zeros in an exact table
    table.setflags(write=False)
    mats = list(g.realization) + [1j * m for m in g.realization]
    labels = list(g.labels) + [f"i*{l}" for l in g.labels]
    return LieAlgebra(labels, table, realization=mats, pairing=IM_TRACE, _jacobi=g.jacobi)


def gprime_algebra(entry) -> LieAlgebra:
    """gprime = sigma(k0) (+) k, the lower-corner block together with the
    compact part, as a realized algebra: the re-expansion that checks its
    closure is its table in the (sigma psi, x) basis."""
    half = [sigma_conj(m) for m in entry.psi_mats] + list(entry.g.realization[:entry.mp.dim_b])
    return LieAlgebra([f"s{i}" for i in range(len(half))], realization=half)


def compact_algebra(entry) -> LieAlgebra:
    """The compact form k (+) i p inside sl(p+1, C) as a realized algebra, in
    the basis of k, then i times the Cartan decomposition's p rows."""
    m = entry.mp.dim_b
    p_mats = entry.g.matrix_of(entry.cartan.parts["p"])
    labels = list(entry.g.labels[:m]) + [f"ip_{i}" for i in range(len(p_mats))]
    return LieAlgebra(labels, realization=[*entry.g.realization[:m], *(1j * p_mats)])


def check_manin(big: LieAlgebra, gstar: LieAlgebra, halves: dict[str, LieAlgebra]) -> dict:
    """The triples (big, half, gstar), one per entry of `halves`, from one pass
    per half.  Returns, as a check does, `residuals`: isotropy and closure
    (from the re-expansion that realized it) once for each half and for gstar
    (`isotropy_<name>`, `closure_<name>`, gstar as `gstar`) and the invariance
    of the form (the pairing of `big`) once, over the nonzero entries of its
    table and Gram matrix (`form_invariance`); `conditions`: complementarity
    once per triple (`complementary_<name>`); and `details`: the condition
    number of each triple's joint basis (`complement_condition_<name>`)
    where the dimensions add up."""
    form = big.pairing
    residuals, conditions, details = {}, {}, {}
    for name, alg in (halves | {"gstar": gstar}).items():
        gram = trace_gram(alg.realization, alg.realization, form)
        residuals[f"isotropy_{name}"] = float(np.max(np.abs(gram)))
        residuals[f"closure_{name}"] = alg.realization_residual
    residuals["form_invariance"] = form_invariance(
        big.structure, trace_gram(big.realization, big.realization, form))
    for name, half in halves.items():
        complementary = half.dim + gstar.dim == big.dim
        if complementary:
            cond = float(np.linalg.cond(big.coords_of(half.realization + gstar.realization).T))
            details[f"complement_condition_{name}"] = cond
            complementary = bool(np.isfinite(cond) and cond < 1e8)
        conditions[f"complementary_{name}"] = complementary
    return {"residuals": residuals, "conditions": conditions, "details": details}


def form_invariance(table: np.ndarray, gram: np.ndarray) -> float:
    """max |<[a,b],c> + <b,[a,c]>| over basis triples, for the structure
    constants `table` and the Gram matrix `gram` of the form, over nonzero
    entries only: table[a, b, m] meets gram[m, c] and table[a, c, m] meets
    gram[b, m], summed per triple (`lie.worst_key_sum`); no n^3 array is
    made.  A non-finite entry in either gives NaN."""
    if not (np.isfinite(table).all() and np.isfinite(gram).all()):
        return float("nan")
    n = table.shape[0]
    vals, (a, b, m), _ = nonzero_runs(table)

    def meet(entries):      # each nonzero table[., ., m] with every nonzero entries[m, x]
        e_vals, (_, x), starts = nonzero_runs(entries)
        first, second = meet_runs(np.arange(len(vals)), m, starts)
        return first, x[second], vals[first] * e_vals[second]

    first, c1, prod1 = meet(gram)        # <[a,b],c>: table[a, b, m] gram[m, c]
    second, b2, prod2 = meet(gram.T)     # <b,[a,c]>: table[a, c, m] gram[b, m]
    keys = np.concatenate([(a[first] * n + b[first]) * n + c1,
                           (a[second] * n + b2) * n + b[second]])
    found = worst_key_sum(keys, np.concatenate([prod1, prod2]), 1)
    return 0.0 if found is None else found[0]


def gstar_k0_abelian_residual(entry) -> float:
    """Pairwise brackets of the last-column block of gstar, read off its
    table: exactly zero."""
    k0 = entry.gstar_k0_indices
    return float(np.max(np.abs(entry.gstar.structure[np.ix_(k0, k0)]), initial=0.0))


def gprime_block_residual(gprime: LieAlgebra, k: int) -> float:
    """[k, sigma(k0)] stays inside sigma(k0): the k-part of those brackets in
    the table of gprime (`gprime_algebra`, basis sigma(psi^1..psi^k), then k)."""
    return float(np.max(np.abs(gprime.structure[k:, :k, k:]), initial=0.0))


# -- Cartan-cocycle deformations ------------------------------------------------


def phi_identification(entry) -> np.ndarray:
    """phi: k0 -> p defined by B(phi(psi), y) = <psi, y> for y in s, B = Re trace.

    Returns the p-basis coefficient matrix, columns indexed by the psi basis."""
    g = entry.g
    k = entry.mp.y_basis.shape[0]
    gram = trace_gram(g.matrix_of(entry.cartan.parts["p"]), g.matrix_of(entry.mp.y_basis),
                      RE_TRACE)
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > 1e8:
        raise ValueError("Re-trace form is degenerate on p x s")
    # <psi^i, y_b> = delta_ib, so columns solve gram^T c = e_i
    return np.linalg.solve(gram.T, np.eye(k))


def deform_bracket(table: np.ndarray, k: int, sign: float) -> LieAlgebra:
    """Deformed bracket on the model p x| k:
    [(u,x),(v,y)]_s = ([x,v] - [y,u], [x,y] + s [u,v]_g).

    Every block is a slice of the model table M of g in the basis (u, x),
    u_i = phi(psi^i) for i < k (`g_structure_in_model_basis`): s M[u, u, x]
    on [u, u], M[x, u, u] on [x, u] and M[x, x, x] on [x, x].  The model needs
    [p, p] in k, so the u-part of [u, u], M[u, u, u], is left out.  A table
    snapped to its grid (`lie.snap_dyadic`; phi has entries +-1/2, so on the
    catalog M holds quarter-integers) gives exact deformations.  On the
    catalog their Jacobi contraction forms at most n^3 products, so it runs
    over their nonzero entries (`lie.takes_sparse_path`)."""
    m = table.shape[0] - k
    c = np.zeros_like(table)
    c[:k, :k, k:] = sign * table[:k, :k, k:]
    c[k:, :k, :k] = table[k:, :k, :k]
    c[:k, k:, :k] = table[:k, k:, :k]
    c[k:, k:, k:] = table[k:, k:, k:]
    labels = [f"u_{i}" for i in range(k)] + [f"x_{a}" for a in range(m)]
    return LieAlgebra(labels, c)


def g_structure_in_model_basis(entry) -> np.ndarray:
    """Structure constants of g in the model basis (phi(psi), b)."""
    phi = phi_identification(entry)
    u_rows = (entry.cartan.parts["p"].T @ phi).T
    b_rows = entry.mp.decomp.parts["b"]
    return structure_in_basis(entry.g.structure, np.column_stack([u_rows.T, b_rows.T]))


def killing_eigenvalues(alg: LieAlgebra) -> np.ndarray:
    """Eigenvalues of the Killing form tr(ad a ad b) = sum c[a,j,k] c[b,k,j],
    one GEMM of the flattened table with its transpose in (j, k)."""
    c = alg.structure
    n = alg.dim
    killing = c.reshape(n, n * n) @ c.transpose(0, 2, 1).reshape(n, n * n).T
    return np.linalg.eigvalsh(killing)


# -- cobrackets on gstar and the twist --------------------------------------------


def cobracket_on_gstar(gstar: LieAlgebra, half: LieAlgebra) -> np.ndarray:
    """delta_half on gstar: <delta(xi), X ^ Y> = <xi, [X, Y]_half> via Im trace,
    as one array delta[x, p, q] laid out like `bialgebra.delta_direct`.

    Both are realized algebras, and the brackets are read off the half's
    table: with the Gram matrix G[x, r] = <xi_x, X_r>,
    <xi_x, [X_i, X_j]> = sum_r c[i, j, r] G[x, r], carried to gstar by the
    form-dual basis of the half, the columns of G^-T."""
    n = half.dim
    pair = trace_gram(gstar.realization, half.realization, IM_TRACE)
    w = np.linalg.solve(pair.T, np.eye(gstar.dim))
    # h[x, i, j] = <xi_x, [X_i, X_j]>: one GEMM of the flattened table
    h = (half.structure.reshape(n * n, n) @ pair.T).T.reshape(gstar.dim, n, n)
    delta = w @ h @ w.T
    return 0.5 * (delta - np.swapaxes(delta, 1, 2))


def cprime_residual(entry, delta_g: np.ndarray, delta_other: np.ndarray,
                    expected_sign: float) -> float:
    """Residual of (delta_g - delta_other)(xi) = sign * c'(xi) with
    <c'(xi), X ^ Y> = <xi, [P_p X, P_p Y]_g> for X, Y in the g basis."""
    pair = entry.gstar_g_pairing
    p_proj = entry.cartan.projections["p"]       # column x: P_p of basis vector x
    # rhs[idx, x, y] = Im tr(xi_idx [P_p x, P_p y]_g)
    rhs = np.einsum("ax,by,abr,ir->ixy", p_proj, p_proj, entry.g.structure, pair,
                    optimize=True)
    lhs = pair.T @ (delta_g - delta_other) @ pair
    return float(np.max(np.abs(lhs - expected_sign * rhs)))


def schouten_square(alg: LieAlgebra, s: np.ndarray) -> np.ndarray:
    """[s, s] as a Lambda^3 coefficient tensor, for the antisymmetric
    coefficient matrix s of a bivector on `alg`.

    The decomposable rule [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c
    summed over the antisymmetric coefficients of s collapses to the
    antisymmetrization of s^{ap} s^{bq} [e_a, e_b]^r."""
    return _alt3(np.einsum("ap,bq,abr->rpq", s, s, alg.structure, optimize=True))


def _cyclic(t: np.ndarray) -> np.ndarray:
    """t_pqr + t_rpq + t_qrp."""
    return t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1))


def gerstenhaber_d(delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d s for d extending delta as a degree-1 derivation: d(a^b) = delta(a)^b - a^delta(b),
    s an antisymmetric coefficient matrix."""
    # a ^ delta(b) = delta(b) ^ a for a 1-form against a 2-form, so
    # d(a^b) = delta(a)^b - delta(b)^a, each wedge a cyclic sum of C_pq w_r
    return 0.5 * (_cyclic(np.einsum("ab,apq->pqb", s, delta))
                  - _cyclic(np.einsum("ab,bpq->pqa", s, delta)))


def twist_element(entry, scale: float = TWIST_INNER_SCALE) -> tuple[np.ndarray, float]:
    """s = sum_j (J y_j) (x) y_j in Lambda^2 gstar via the inner-product flat map,
    as the antisymmetric part (s - s^T) / 2 of that sum, and the antisymmetry
    residual max |s + s^T| of the sum itself.

    (y_j) is an orthonormal basis of p for inner(u, v) = scale * Re tr(uv),
    the Cholesky one of the Cartan decomposition's p rows; s does not depend
    on that choice."""
    g = entry.g
    p_rows = entry.cartan.parts["p"]
    p_mats = g.matrix_of(p_rows)
    gram = scale * trace_gram(p_mats, p_mats, RE_TRACE)
    chol = np.linalg.cholesky(gram)
    onb = np.linalg.solve(chol, p_rows)          # rows: orthonormal basis of p
    ad_z = g.ad_matrix_coords(entry.z)
    p_of_basis = g.matrix_of(entry.cartan.projections["p"].T)   # P_p x for each basis x
    pair = entry.gstar_g_pairing

    def flat(u_rows: np.ndarray) -> np.ndarray:
        # columns: xi in gstar with Im tr(xi x) = inner(u, P_p x) for all x in g
        rhs = scale * trace_gram(g.matrix_of(u_rows), p_of_basis, RE_TRACE)
        return np.linalg.solve(pair.T, rhs.T)

    # s = sum_j flat(ad_z y_j) (x) flat(y_j)
    s_mat = flat(onb @ ad_z.T) @ flat(onb).T
    return 0.5 * (s_mat - s_mat.T), float(np.max(np.abs(s_mat + s_mat.T)))


def twist_check(entry, s: np.ndarray, delta_g: np.ndarray, delta_gp: np.ndarray) -> dict:
    """For the twist element s (`twist_element`, which also gives (i), the
    antisymmetry residual): (ii) (1/2)[s, s] + d s = 0 with d from
    delta_gprime, (iii) delta_g = delta_gprime + xi.s, given the two
    cobrackets on gstar (`cobracket_on_gstar` of g and of gprime)."""
    gs = entry.gstar
    mc = 0.5 * schouten_square(gs, s) + gerstenhaber_d(delta_gp, s)
    mc_residual = float(np.max(np.abs(mc)))

    # the action of each basis vector: ad matrices a_idx = structure[idx]^T
    ad = np.transpose(gs.structure, (0, 2, 1))
    twisted = delta_gp + ad @ s + s @ gs.structure
    return {
        "maurer_cartan": mc_residual,
        "twist_relation": float(np.max(np.abs(delta_g - twisted))),
    }
