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
from .lie import (LieAlgebra, generated_dim, jacobi_worst_at, meet_runs, nonzero_runs,
                  takes_sparse_path, worst_key_sum)
from .linalg import BasedSpace, best_sign, finite_diff, worst, worst_at
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
    return finite_diff(lambda t: eta(mp, basis_curves(mp, t)), 0.0, step)


def delta_consistency_worst_at(mp: MatchedPair, delta: np.ndarray,
                               step: float = FD_STEP) -> tuple[float, int]:
    """max | delta - delta_from_eta |, for the pair's cobracket or a corrupted
    copy, with the e-basis vector x whose delta(e_x) attains it (`worst_at`)."""
    return worst_at(np.abs(delta - delta_from_eta(mp, step)).max(axis=(1, 2)))


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

    Tables that take the sparse path (`lie.takes_sparse_path`: finite, and
    at most n^3 nonzero products) are contracted over their nonzero entries
    (`_cocycle_sparse`), any other densely."""
    c = mp.e_algebra.structure
    found = _cocycle_sparse(c, delta, rule=True)
    return _cocycle_dense(c, delta) if found is None else found


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


def _cocycle_sparse(c: np.ndarray, delta: np.ndarray,
                    rule: bool = False) -> tuple[float, tuple[int, int]] | None:
    """`cocycle_1_worst_at` of finite tables over their nonzero entries; with
    `rule`, None where `lie.takes_sparse_path` sends them to the dense loop.

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
    vals, (r, i, p), _ = nonzero_runs(c)                # c[r, i, p]
    # sum_l c[i,j,l] delta[l,p,q]: c[r, i, p] with r < i meets delta[p, ., .], p < q
    above = np.triu(np.ones((n, n), bool), 1)
    d_vals, (_, d_p, d_q), d_starts = nonzero_runs(np.where(above, delta, 0.0))
    upper = np.flatnonzero(r < i)
    # -G(i,j) + G(j,i): c[i,r,p] delta[j,r,q] = -c[r,i,p] delta^T[r,j,q]
    t_vals, (_, t_j, t_q), t_starts = nonzero_runs(delta.transpose(1, 0, 2))
    if rule and not takes_sparse_path((c, delta), (p[upper], d_starts), (r, t_starts)):
        return None
    first, second = meet_runs(upper, p[upper], d_starts)
    keys = [((r[first] * n + i[first]) * n + d_p[second]) * n + d_q[second]]
    prods = [vals[first] * d_vals[second]]
    first, second = meet_runs(np.arange(len(r)), r, t_starts)
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
    """Route A: r = z.delta(z), with the entry's normalized central z, made
    exactly antisymmetric.  Route B: r = sum_i P^C_k y_i ^ psi^i, built so.
    Both are coefficient matrices over the e-basis."""
    mp = entry.mp
    k, m = mp.dim_c, mp.dim_b
    z_e = np.concatenate([np.zeros(k), mp.b_coords(entry.z)])

    delta_z = np.einsum("a,apq->pq", z_e, mp.delta)
    ad_z = mp.e_algebra.ad_matrix_coords(z_e)
    route_a = ad_z @ delta_z + delta_z @ ad_z.T
    route_a = 0.5 * (route_a - route_a.T)

    route_b = np.zeros((k + m, k + m))
    for i in range(k):
        xk = mp.b_coords(entry.cartan.project("k", mp.y_basis[i]))
        route_b[k:, i] += xk
        route_b[i, k:] -= xk

    block_resid = worst(np.max(np.abs(route_b[:k, :k])), np.max(np.abs(route_b[k:, k:])))
    return {
        "route_a": route_a,
        "route_b": route_b,
        "difference": float(np.max(np.abs(route_a - route_b))),
        "relative_sign": best_sign(route_a, route_b)[0],
        "k_wedge_k0_block_residual": block_resid,
    }


def coboundary_worst_at(mp: MatchedPair, r: np.ndarray) -> tuple[float, int]:
    """Residual of delta(X) = [r, Delta X] = -X.r on every basis vector at
    once, X.r = ad(X) r + r ad(X)^T with ad(e_x) = structure[x]^T, with the
    e-basis vector x it is attained at (`worst_at`); r is the coefficient
    matrix over the e-basis."""
    c = mp.e_algebra.structure
    act = np.swapaxes(c, 1, 2) @ r + r @ c
    act = 0.5 * (act - np.swapaxes(act, 1, 2))
    return worst_at(np.abs(mp.delta + act).max(axis=(1, 2)))


def uniqueness_generators(n: int) -> np.ndarray:
    """Two fixed elements of e, as rows of e-coordinates, whose invariance
    equations `check_r_uniqueness` solves on the torus kernel; it certifies
    that they generate e."""
    return np.stack([np.ones(n), np.arange(1, n + 1) / n])


def torus_weights(count: int) -> np.ndarray:
    """sqrt 2, sqrt 3, sqrt 5, ...: the square roots of the first `count`
    primes.  They are linearly independent over the rationals, so an integer
    combination of them, such as a weight of ad(H) on a root vector, is zero
    only when every coefficient is."""
    primes = []
    q = 2
    while len(primes) < count:
        if all(q % r for r in primes):
            primes.append(q)
        q += 1
    return np.sqrt(np.array(primes, dtype=float))


def torus_element(mp: MatchedPair, torus: np.ndarray) -> np.ndarray:
    """H = sum_j w_j t_j in e-coordinates, for the torus rows t_j (g-coordinates
    of commuting elements of b) and the `torus_weights` w_j; its psi-part is
    zero."""
    torus = np.asarray(torus, dtype=float).reshape(-1, mp.g.dim)
    return np.concatenate([np.zeros(mp.dim_c), mp.b_coords(torus_weights(len(torus)) @ torus)])


def _components(a: np.ndarray) -> dict[int, np.ndarray]:
    """The connected components of the graph on the indices of a square
    matrix, with an edge i - j wherever a[i, j] or a[j, i] is nonzero, by
    size: size -> (count, size) array, one component per row in increasing
    order.  Every index takes the least label it is linked to until none
    changes, so the loop runs once per step along the longest path, not once
    per component."""
    n = len(a)
    linked = (a != 0) | (a.T != 0) | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:
        least = np.where(linked, labels, n).min(axis=1)
        if np.array_equal(least, labels):
            break
        labels = least
    roots = np.flatnonzero(labels == np.arange(n))
    sizes = np.bincount(labels)[roots]
    # a set of the few sizes, and no sort: the first np.unique or stable
    # argsort of a process pages in 0.25-1.7 MB that no other check needs
    return {s: np.nonzero(labels == roots[sizes == s, None])[1].reshape(-1, s)
            for s in sorted(set(sizes.tolist()))}


def torus_kernel(mp: MatchedPair, h: np.ndarray, svd_tol: float = SVD_TOL,
                 drop_b0_rows: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The invariance equations of an element h of b (e-coordinates) on one
    candidate family: their k m singular values, and an orthonormal basis of
    their kernel K, the right singular vectors whose values are not above
    svd_tol, as a stack of k x m tensors.

    h lies in b, so ad_e(h) is block-diagonal, A0 on b0 and Ab on b.  On the
    candidates psi_i (x) x_a, a k x m tensor T, the equations are the
    Sylvester map T -> A0 T + T Ab^T; on x_a (x) psi_i, the tensor T^T, they
    are its transpose, with the same singular values and kernel.  In vec(T)
    the map is kron(A0, 1) + kron(1, Ab), so it maps each piece T[C, D] to
    itself, C a connected component of A0 (`_components`) and D one of Ab;
    the pieces take one stacked SVD per pair of component sizes.
    `drop_b0_rows` drops A0, as in `check_r_uniqueness`."""
    k, m = mp.dim_c, mp.dim_b
    ad = mp.e_algebra.ad_matrix_coords(h)
    a0 = np.zeros((k, k)) if drop_b0_rows else ad[:k, :k]
    ab = ad[k:, k:]
    svals, kernel = [], []
    for c, rows in _components(a0).items():
        for d, cols in _components(ab).items():
            block0 = a0[rows[:, :, None], rows[:, None, :]]
            blockb = ab[cols[:, :, None], cols[:, None, :]]
            # eq[x, y, i, j, i', j'] = A0[i, i'] 1[j, j'] + 1[i, i'] Ab[j, j'] on T[C_x, D_y]
            eq = (block0[:, None, :, None, :, None] * np.eye(d)[:, None, :]
                  + np.eye(c)[:, None, :, None] * blockb[:, None, :, None, :])
            eq = eq.reshape(-1, c * d, c * d)
            at = (rows[:, None, :, None] * m + cols[None, :, None, :]).reshape(-1, c * d)
            _, s, vt = np.linalg.svd(eq)
            null = ~(s > svd_tol)
            basis = np.zeros((int(null.sum()), k * m))
            basis[np.arange(len(basis))[:, None], at[np.nonzero(null)[0]]] = vt[null]
            svals.append(s.ravel())
            kernel.append(basis)
    return np.concatenate(svals), np.concatenate(kernel).reshape(-1, k, m)


def restricted_singular_values(mp: MatchedPair, basis: np.ndarray,
                               drop_b0_rows: bool = False) -> np.ndarray:
    """The singular values of the `uniqueness_generators`' invariance
    equations on the span of the candidates t and t^T, for t the psi (x) x
    tensors of `basis` (orthonormal k x m tensors T): those of the symmetric
    block, then those of the antisymmetric one.

    With A = ad_e of a generator in blocks [[P, Q], [0, S]] (b0 first; b0 is
    an ideal of e), the image X = A t + t A^T of t has the blocks
    X00 = T Q^T and X01 = P T + T S^T, and zeros elsewhere.  Transposing
    commutes with the action, so the candidates (t + t^T)/sqrt 2 have the
    symmetric images (X + X^T)/sqrt 2 and (t - t^T)/sqrt 2 the antisymmetric
    ones.  Each block is read in the coordinates (S_ii, sqrt 2 S_ij for
    i < j) of its images, which keep the Frobenius norm, and takes one SVD per
    component of the candidates linked by a shared equation (`_components`),
    plus the zeros that one SVD of the whole block would list."""
    e = mp.e_algebra
    k, n = mp.dim_c, e.dim

    def upper(x, sign):
        """(x + sign x^T)/sqrt 2 of a stack of k x k blocks, in those coordinates."""
        i, j = np.triu_indices(x.shape[-1])
        return (x[:, i, j] + sign * x[:, j, i]) * np.where(i == j, np.sqrt(0.5), 1.0)

    blocks = ([], [])     # each block's equations, in parts, over the candidates
    for x in uniqueness_generators(n):
        ad = e.ad_matrix_coords(x)
        if drop_b0_rows:
            ad[:k, :] = 0.0
            ad[:, :k] = 0.0
        x00 = basis @ ad[:k, k:].T
        x01 = (ad[:k, :k] @ basis + basis @ ad[k:, k:].T).reshape(len(basis), -1).T
        for block, sign in zip(blocks, (1.0, -1.0)):
            block += [upper(x00, sign).T, x01]
    svals = []
    for block in blocks:
        nz = [(rows != 0).astype(np.float32) for rows in block]
        pieces = [np.vstack([rows[z[:, cols].any(1)][:, cols] for rows, z in zip(block, nz)])
                  for comps in _components(sum(z.T @ z for z in nz)).values() for cols in comps]
        found = np.sort(np.concatenate([np.linalg.svd(x, compute_uv=False) for x in pieces]))[::-1]
        svals += [found, np.zeros(min(sum(map(len, pieces)), len(basis)) - len(found))]
    return np.concatenate(svals)


def check_r_uniqueness(mp: MatchedPair, torus: np.ndarray, svd_tol: float = SVD_TOL,
                       drop_b0_rows: bool = False) -> dict:
    """Dimension of invariant elements of (k (x) k0) (+) (k0 (x) k).

    Candidates are spanned by x_a (x) psi_b and psi_b (x) x_a; the action of X
    is ad_e(X) on both tensor legs.  A tensor that all of e annihilates is
    annihilated by H = `torus_element`, a generic element of the torus
    spanned by the rows of `torus`, so it lies in the kernel K of H's
    equations (`torus_kernel`, closed-form pieces).  K = 0 certifies
    kernel_dim = 0, by the margin `torus_smallest_sv`.  Otherwise the
    elements annihilating a tensor form a subalgebra, so the kernel over e is
    that of two elements that generate e, taken on K alone
    (`restricted_singular_values`; fewer rows than candidates leave exact
    zeros the SVD does not list, so the kernel is counted as the candidates
    less the values above svd_tol).  A torus with a larger K costs time, not a
    wrong kernel_dim.  The generation is certified, and its deficit dim e
    minus the dimension generated is reported next to the kernel.

    With `drop_b0_rows` the action on the k0 legs is dropped, leaving ad_b of
    the b-part: a representation of e pulled back from the quotient b, so the
    same generators give its invariants (the documented negative control;
    central elements then survive, and K holds every candidate whose b leg
    lies in the torus)."""
    e = mp.e_algebra
    svals, basis = torus_kernel(mp, torus_element(mp, torus), svd_tol, drop_b0_rows)
    kernel_dim = 0
    if len(basis):
        restricted = restricted_singular_values(mp, basis, drop_b0_rows)
        kernel_dim = 2 * len(basis) - int(np.sum(restricted > svd_tol))
    return {
        "kernel_dim": kernel_dim,
        "svd_threshold": svd_tol,
        "torus_smallest_sv": float(svals.min()),
        "torus_kernel_dim": 2 * len(basis),
        "generation_deficit": e.dim - generated_dim(e, uniqueness_generators(e.dim), svd_tol),
    }
