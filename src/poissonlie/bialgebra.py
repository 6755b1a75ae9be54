"""The Lie algebra e = b0 x| b, its cobracket by two independent routes, the
bialgebra axioms, and the coboundary structure for Iwasawa pairs.

e and the direct cobracket are blocks of one table, `MatchedPair.adapted`:
the structure constants of g in the basis (x_1..x_m, y_1..y_k).  e takes its
mixed bracket from the c-part of [c, b], and delta takes it from the b-part.
The pair builds each once and keeps it read-only (`MatchedPair.e_algebra`,
`MatchedPair.delta`); the functions here take the pair.

Conventions: the e-basis is (psi^1..psi^k, x_1..x_m); a cobracket is stored as
one array delta[x, p, q], the antisymmetric coefficient matrix of delta(e_x)
for each basis vector x; the action of X on a bivector C is A_X C + C A_X^T
with A_X the adjoint matrix of e, and [r, Delta X] = -X.r."""

from __future__ import annotations

import numpy as np

from .config import FD_STEP, SVD_TOL
from .group import basis_curves
from .lie import LieAlgebra, generated_dim, jacobi_worst_at
from .linalg import BasedSpace, Bivector, best_sign, finite_diff, worst
from .matched import MatchedPair
from .poisson import eta


def semidirect_algebra(mp: MatchedPair) -> LieAlgebra:
    """Assemble e = b0 x| b from blocks of the adapted table A of g:
    [psi, psi'] = 0, [x_j, psi^i] = ad*(x_j) psi^i with y_l-component
    <psi^i, [y_l, x_j]> = A[m+l, j, m+i], and [x_a, x_b] = A[a, b, :m]."""
    k, m = mp.dim_c, mp.dim_b
    a = mp.adapted
    c = np.zeros((k + m,) * 3)
    mixed = a[m:, :m, m:].transpose(1, 2, 0)     # mixed[j, i, l] = [x_j, psi^i]_l
    c[k:, :k, :k] = mixed
    c[:k, k:, :k] = -mixed.swapaxes(0, 1)
    c[k:, k:, k:] = a[:m, :m, :m]
    return LieAlgebra(BasedSpace(mp.e_space.dim, mp.e_space.labels), c)


# -- cobracket ---------------------------------------------------------------


def delta_direct(mp: MatchedPair) -> np.ndarray:
    """The cobracket as one array delta[x, p, q], the e^p ^ e^q coefficient of
    delta(e_x), laid out like `LieAlgebra.structure`:

        delta(psi) = (1/2) <psi, [y_i, y_j]> psi^i ^ psi^j,
        delta(x) = sum_i P_b [y_i, x] ^ psi^i.

    Built once per pair, as `MatchedPair.delta`."""
    k, m = mp.dim_c, mp.dim_b
    n = k + m
    a = mp.adapted
    t = a[m:, :m, :m]               # t[i, j, a]: b-coordinate a of [y_i, x_j]
    delta = np.zeros((n, n, n))
    delta[:k, :k, :k] = np.moveaxis(a[m:, m:, m:], 2, 0)
    delta[k:, k:, :k] = t.transpose(1, 2, 0)
    delta[k:, :k, k:] = -t.transpose(1, 0, 2)
    return 0.5 * (delta - delta.swapaxes(1, 2))


def delta_from_eta(mp: MatchedPair, step: float = FD_STEP) -> np.ndarray:
    """Linearization of the group cocycle at the identity, laid out as
    `delta_direct`: one finite difference of eta along the stacked
    `group.basis_curves` (t psi_i, 1), then (0, exp(t x_j))."""
    return finite_diff(lambda t: eta(mp, basis_curves(mp, t)).coeffs, 0.0, step)


def delta_consistency_residual(mp: MatchedPair, delta: np.ndarray,
                               step: float = FD_STEP) -> float:
    """max | delta - delta_from_eta |, for the pair's cobracket or a corrupted copy."""
    return float(np.max(np.abs(delta - delta_from_eta(mp, step))))


# -- axioms -------------------------------------------------------------------


def _alt3(t: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (six signed permutations, no normalization)."""
    return (t - np.transpose(t, (1, 0, 2)) + np.transpose(t, (1, 2, 0))
            - np.transpose(t, (2, 1, 0)) + np.transpose(t, (2, 0, 1))
            - np.transpose(t, (0, 2, 1)))


def co_jacobi_worst_at(delta: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """max over basis X of | Alt((delta (x) id) delta(X)) |, with the triple it
    is attained at.  This is the Jacobi identity of the dual table
    [e^p, e^q] = delta[:, p, q]; the full antisymmetrization counts each
    cyclic term twice."""
    resid, triple = jacobi_worst_at(np.moveaxis(delta, 0, 2))
    return 2 * resid, triple


def cocycle_1_residual(mp: MatchedPair, delta: np.ndarray) -> float:
    """max over basis pairs of | delta([X,Y]) - X.delta(Y) + Y.delta(X) |,
    one basis vector X = e_i at a time against every Y = e_j, j > i."""
    c = mp.e_algebra.structure
    ad = np.swapaxes(c, 1, 2)                  # ad(e_i) = structure[i]^T
    out = 0.0
    for i in range(len(c) - 1):
        lhs = np.tensordot(c[i, i + 1:], delta, axes=1)
        xi_dj = ad[i] @ delta[i + 1:] + delta[i + 1:] @ ad[i].T
        xj_di = ad[i + 1:] @ delta[i] + delta[i] @ np.swapaxes(ad[i + 1:], 1, 2)
        out = worst(out, np.max(np.abs(lhs - xi_dj + xj_di)))
    return out


# -- r-matrix for Iwasawa pairs -------------------------------------------------


def r_matrix(entry) -> dict:
    """Route A: r = z.delta(z), with the entry's normalized central z.
    Route B: r = sum_i P^C_k y_i ^ psi^i."""
    mp = entry.mp
    k, m = mp.dim_c, mp.dim_b
    z_e = np.concatenate([np.zeros(k), mp.b_coords(entry.z)])

    delta_z = np.einsum("a,apq->pq", z_e, mp.delta)
    ad_z = mp.e_algebra.ad_matrix_coords(z_e)
    route_a = Bivector(mp.e_space, ad_z @ delta_z + delta_z @ ad_z.T)

    coeffs = np.zeros((k + m, k + m))
    for i in range(k):
        xk = mp.b_coords(entry.cartan.project("k", mp.y_basis[i]))
        coeffs[k:, i] += xk
        coeffs[i, k:] -= xk
    route_b = Bivector(mp.e_space, coeffs)

    block_resid = worst(np.max(np.abs(route_b.coeffs[:k, :k])),
                        np.max(np.abs(route_b.coeffs[k:, k:])))
    return {
        "route_a": route_a,
        "route_b": route_b,
        "difference": (route_a - route_b).max_norm(),
        "relative_sign": best_sign(route_a.coeffs, route_b.coeffs)[0],
        "k_wedge_k0_block_residual": block_resid,
    }


def check_coboundary(mp: MatchedPair, r: Bivector, scale: float = 1.0) -> float:
    """Residual of delta(X) = [r, Delta X] = -X.r on every basis vector at
    once: X.r = ad(X) r + r ad(X)^T with ad(e_x) = structure[x]^T."""
    r = scale * r.coeffs
    c = mp.e_algebra.structure
    act = np.swapaxes(c, 1, 2) @ r + r @ c
    act = 0.5 * (act - np.swapaxes(act, 1, 2))
    return float(np.max(np.abs(mp.delta + act)))


def uniqueness_generators(n: int) -> np.ndarray:
    """Two fixed elements of e, as rows of e-coordinates, for the invariance
    equations of `check_r_uniqueness`, which certifies that they generate e."""
    return np.stack([np.ones(n), np.arange(1, n + 1) / n])


def invariance_rows(mp: MatchedPair, x: np.ndarray, drop_b0_rows: bool = False) -> np.ndarray:
    """The invariance equations on the candidates for the element x of e (given
    by its e-coordinates), one column per candidate.

    Candidates are the unit tensors x_a (x) psi_b, then psi_b (x) x_a, as n x n
    matrices t (t[k + a, b] = 1, then t[b, k + a] = 1); column (f, a, b) is
    candidate (a, b) of family f and holds vec(A t + t A^T), A = ad_e(x).
    `drop_b0_rows` drops the action on the k0 legs (the negative control of
    `check_r_uniqueness`)."""
    e = mp.e_algebra
    k, m, n = mp.dim_c, mp.dim_b, e.dim
    ad = e.ad_matrix_coords(x)
    if drop_b0_rows:
        ad[:k, :] = 0.0
        ad[:, :k] = 0.0
    out = np.zeros((n, n, 2, m, k))
    a, b = np.arange(m), np.arange(k)
    out[:, b, 0, :, b] = ad[:, k:]               # (A t)[r, b] = A[r, k + a]
    out[k + a, :, 0, a, :] += ad[:, :k]          # (t A^T)[k + a, s] = A[s, b]
    out[:, k + a, 1, a, :] = ad[:, None, :k]     # (A t)[r, k + a] = A[r, b]
    out[b, :, 1, :, b] += ad[:, k:]              # (t A^T)[b, s] = A[s, k + a]
    return out.reshape(n * n, 2 * k * m)


def symmetric_blocks(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`invariance_rows` in orthonormal bases that split them in two.

    t -> t^T swaps the two candidate families and commutes with
    t -> A t + t A^T, so the candidates (t + t^T)/sqrt 2 have symmetric images
    and (t - t^T)/sqrt 2 antisymmetric ones.  Returns the symmetric block, in
    the coordinates (S_ii, sqrt 2 S_ij for i < j) of its images, and the
    antisymmetric block in the coordinates sqrt 2 S_ij, i < j; each has one
    column per candidate pair, and their singular values together are those
    of `rows`."""
    t = rows.reshape(n, n, 2, -1)
    iu, ju = np.triu_indices(n, 1)
    diag = np.arange(n)
    sym = np.vstack([(t[diag, diag, 0] + t[diag, diag, 1]) / np.sqrt(2.0),
                     t[iu, ju, 0] + t[iu, ju, 1]])
    return sym, t[iu, ju, 0] - t[iu, ju, 1]


def uniqueness_singular_values(mp: MatchedPair, drop_b0_rows: bool = False) -> np.ndarray:
    """The singular values of the invariance equations of the two
    `uniqueness_generators`, stacked: those of the symmetric block, then
    those of the antisymmetric one (`symmetric_blocks`).  Each block keeps
    its nonzero rows and takes one SVD; a block with none gives no values."""
    gens = uniqueness_generators(mp.e_algebra.dim)
    blocks = [symmetric_blocks(invariance_rows(mp, x, drop_b0_rows), mp.e_algebra.dim)
              for x in gens]
    svals = [np.zeros(0)]
    for block in zip(*blocks):      # the symmetric blocks, then the antisymmetric ones
        rows = np.vstack([r[(r != 0).any(axis=1)] for r in block])
        if len(rows):
            svals.append(np.linalg.svd(rows, compute_uv=False))
    return np.concatenate(svals)


def check_r_uniqueness(mp: MatchedPair, svd_tol: float = SVD_TOL,
                       drop_b0_rows: bool = False) -> dict:
    """Dimension of invariant elements of (k (x) k0) (+) (k0 (x) k).

    Candidates are spanned by x_a (x) psi_b and psi_b (x) x_a; the action of X
    is ad_e(X) on both tensor legs.  The elements annihilating a tensor form a
    subalgebra, so the invariance equations of two elements that generate e
    have the kernel of those of all of e; their singular values come from
    `uniqueness_singular_values`.  The generation is certified, and its
    deficit dim e minus the dimension generated is reported next to the
    kernel.

    With `drop_b0_rows` the action on the k0 legs is dropped, leaving ad_b of
    the b-part: a representation of e pulled back from the quotient b, so the
    same generators give its invariants (the documented negative control;
    central elements then survive)."""
    e = mp.e_algebra
    svals = uniqueness_singular_values(mp, drop_b0_rows)
    count = 2 * mp.dim_c * mp.dim_b
    kernel_dim = int(count - np.sum(svals > svd_tol))
    return {
        "kernel_dim": kernel_dim,
        "svd_threshold": svd_tol,
        # fewer rows than candidates leaves exact zeros the SVD does not list
        "smallest_sv": float(svals.min()) if len(svals) == count else 0.0,
        "generation_deficit": e.dim - generated_dim(e, uniqueness_generators(e.dim), svd_tol),
    }
