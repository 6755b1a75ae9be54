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
from .lie import LieAlgebra, generated_dim, jacobi_worst_at, meet_runs, worst_key_sum
from .linalg import BasedSpace, Bivector, best_sign, finite_diff, worst, worst_at
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


def cocycle_1_worst_at(mp: MatchedPair, delta: np.ndarray) -> tuple[float, tuple[int, int]]:
    """max over basis pairs of | delta([X,Y]) - X.delta(Y) + Y.delta(X) |, with
    the pair (i, j), X = e_i, Y = e_j, i < j, it is attained at: the first NaN,
    else the first largest, in the order of the dense loop (`_cocycle_dense`);
    (0, 1) when the residual is 0.

    Finite tables the sparse contraction is estimated to be cheaper on
    (`sparse_cocycle_pays`) are contracted over their nonzero entries
    (`_cocycle_sparse`), any other densely."""
    c = mp.e_algebra.structure
    if sparse_cocycle_pays(c, delta):
        return _cocycle_sparse(c, delta)
    return _cocycle_dense(c, delta)


#: Costs of the two cocycle contractions, in multiply-adds of the dense
#: loop (about 0.14 ns each): each of its n - 1 slices costs about 34 us of
#: calls on top, and the sparse contraction about 90 us, plus 105 ns per
#: nonzero product.  Fitted on su11 to su(6,1) with b, c, both or neither in
#: a random basis (n = 3 to 48, up to 2.3M products on the sparse side) and
#: on supq1(7), supq1(8), one BLAS thread, x86-64.
COCYCLE_SLICE_COST = 250_000
COCYCLE_SPARSE_COST = 650_000
COCYCLE_PRODUCT_COST = 750


def sparse_cocycle_pays(c: np.ndarray, delta: np.ndarray) -> bool:
    """Whether `cocycle_1_worst_at` contracts sparsely: both tables are finite
    and the sparse contraction (`_cocycle_sparse`), for the count of nonzero
    products it forms, is estimated to cost less than the dense loop."""
    n = len(c)
    if not (np.isfinite(c).all() and np.isfinite(delta).all()):
        return False
    nzc, nzd = c != 0, delta != 0
    iu, ju = np.triu_indices(n, 1)
    products = int(nzc[iu, ju].sum(axis=0) @ nzd[:, iu, ju].sum(axis=1)
                   + nzc.reshape(n, n * n).sum(axis=1) @ nzd.sum(axis=(0, 2)))
    dense = n ** 5 + COCYCLE_SLICE_COST * (n - 1)
    return COCYCLE_SPARSE_COST + products * COCYCLE_PRODUCT_COST < dense


def _cocycle_dense(c: np.ndarray, delta: np.ndarray) -> tuple[float, tuple[int, int]]:
    """`cocycle_1_worst_at` by dense slices: one basis vector X = e_i at a
    time against every Y = e_j, j > i.  A NaN anywhere reaches some slice."""
    n = len(c)
    ad = np.swapaxes(c, 1, 2)                  # ad(e_i) = structure[i]^T
    per_pair = []
    for i in range(n - 1):
        lhs = np.tensordot(c[i, i + 1:], delta, axes=1)
        xi_dj = ad[i] @ delta[i + 1:] + delta[i + 1:] @ ad[i].T
        xj_di = ad[i + 1:] @ delta[i] + delta[i] @ np.swapaxes(ad[i + 1:], 1, 2)
        per_pair.append(np.abs(lhs - xi_dj + xj_di).max(axis=(1, 2)))
    resid, at = worst_at(np.concatenate(per_pair))
    iu, ju = np.triu_indices(n, 1)
    return resid, (int(iu[at]), int(ju[at]))


def _cocycle_sparse(c: np.ndarray, delta: np.ndarray) -> tuple[float, tuple[int, int]]:
    """`cocycle_1_worst_at` of finite tables over their nonzero entries.

    With X.C = A_X C + C A_X^T, (A_i)[p, r] = c[i, r, p], and delta
    antisymmetric in its last two indices, the (p, q) entry of the residual
    of the pair (i, j) is

        sum_l c[i,j,l] delta[l,p,q] - G(i,j)[p,q] + G(j,i)[p,q],
        G(i,j)[p,q] = sum_r c[i,r,p] delta[j,r,q] - (the same with p, q swapped).

    It is antisymmetric in (i, j) and in (p, q), so each product of a
    nonzero c with a nonzero delta is added, with its sign, to the key
    (i, j, p, q) with i < j and p < q.  The first term joins c[i, j, l],
    i < j, with the run delta[l, p, q], p < q; G joins c[i, r, p] =
    -c[r, i, p] with the run delta[j, r, q], read from delta with its first
    two indices swapped.  The products are summed per key after one sort;
    pairs come in the dense loop's order, so the first largest is the same
    pair."""
    n = len(c)

    def entries(table):
        """The nonzero entries of a table, grouped by their first index: the
        values and the three indices."""
        flat = np.flatnonzero(table)
        head, rest = np.divmod(flat, n * n)
        return (table.ravel()[flat], head, *np.divmod(rest, n))

    def runs(head):
        return np.searchsorted(head, np.arange(n + 1))

    vals, r, i, p = entries(c)                          # c[r, i, p]
    # sum_l c[i,j,l] delta[l,p,q]: c[r, i, p] with r < i meets delta[p, ., .]
    d_vals, d_l, d_p, d_q = entries(delta)
    pq = d_p < d_q
    d_vals, d_l, d_p, d_q = d_vals[pq], d_l[pq], d_p[pq], d_q[pq]
    upper = np.flatnonzero(r < i)
    first, second = meet_runs(upper, p[upper], runs(d_l))
    keys = [((r[first] * n + i[first]) * n + d_p[second]) * n + d_q[second]]
    prods = [vals[first] * d_vals[second]]
    # -G(i,j) + G(j,i): c[i,r,p] delta[j,r,q] = -c[r,i,p] delta^T[r,j,q]
    t_vals, t_r, t_j, t_q = entries(np.ascontiguousarray(delta.transpose(1, 0, 2)))
    first, second = meet_runs(np.arange(len(r)), r, runs(t_r))
    a, b, s, t = i[first], t_j[second], p[first], t_q[second]
    keep = (a != b) & (s != t)
    first, second, a, b, s, t = first[keep], second[keep], a[keep], b[keep], s[keep], t[keep]
    pair, wedge = np.minimum(a, b), np.minimum(s, t)
    keys.append(((pair * n + (a + b - pair)) * n + wedge) * n + (s + t - wedge))
    prods.append(np.where((a < b) == (s < t), 1.0, -1.0) * vals[first] * t_vals[second])
    found = worst_key_sum(np.concatenate(keys), np.concatenate(prods), n * n)
    if found is None:       # every product cancelled, or none was left
        return 0.0, (0, 1)
    resid, pair = found
    return resid, divmod(pair, n)


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
    blocks = [[r[(r != 0).any(axis=1)]
               for r in symmetric_blocks(invariance_rows(mp, x, drop_b0_rows), mp.e_algebra.dim)]
              for x in gens]
    svals = [np.zeros(0)]
    for block in zip(*blocks):      # the symmetric blocks, then the antisymmetric ones
        rows = np.vstack(block)
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
