"""The Lie algebra e = b0 x| b, its cobracket by two independent routes, the
bialgebra axioms, and the coboundary structure for Iwasawa pairs.

Conventions: the e-basis is (psi^1..psi^k, x_1..x_m); a cobracket is stored as
one antisymmetric coefficient matrix per basis vector; the action of X on a
bivector C is A_X C + C A_X^T with A_X the adjoint matrix of e, and
[r, Delta X] = -X.r."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import ALGEBRAIC_TOL, FD_STEP, SVD_TOL
from .group import EElement, exp_b, identity_element
from .lie import LieAlgebra
from .linalg import BasedSpace, Bivector, finite_diff, worst
from .matched import MatchedPair
from .poisson import eta


@dataclass(eq=False)
class EAlgebra:
    e: LieAlgebra
    mp: MatchedPair

    @property
    def k(self) -> int:
        return self.mp.dim_c

    @property
    def m(self) -> int:
        return self.mp.dim_b


def build_e(mp: MatchedPair, perturb: float = 0.0) -> EAlgebra:
    """The algebra e = b0 x| b of the pair.  The unperturbed algebra is built
    and validated once per pair (`MatchedPair.e_algebra`) and shared read-only;
    a nonzero `perturb` builds a fresh, corrupted one (negative control)."""
    return EAlgebra(semidirect_algebra(mp, perturb) if perturb else mp.e_algebra, mp)


def semidirect_algebra(mp: MatchedPair, perturb: float = 0.0) -> LieAlgebra:
    """Assemble e = b0 x| b: [psi, psi'] = 0, [x, psi] = ad*(x) psi, [x, x'] from b.

    A nonzero `perturb` corrupts one mixed structure constant (negative control)."""
    k, m = mp.dim_c, mp.dim_b
    n = k + m
    c = np.zeros((n, n, n))
    for j in range(m):
        x = mp._B[:, j]
        coad = mp.g.coad_matrix_coords(x)
        for i in range(k):
            s = mp.gstar_to_b0(coad @ mp._Psi[:, i])
            c[k + j, i, :k] = s
            c[i, k + j, :k] = -s
    for a in range(m):
        for b in range(a + 1, m):
            br = mp.b_coords(mp.g.bracket_coords(mp._B[:, a], mp._B[:, b]))
            c[k + a, k + b, k:] = br
            c[k + b, k + a, k:] = -br
    if perturb:
        # deliberately break the abelian block: [psi_0, psi_1] = perturb * psi_0
        # fails Jacobi against the b-action and trips the constructor
        c[0, 1, 0] += perturb
        c[1, 0, 0] -= perturb
    return LieAlgebra(BasedSpace(mp.e_space.dim, mp.e_space.labels), c)


# -- cobracket ---------------------------------------------------------------


def delta_direct(ea: EAlgebra, b0_sign: float = 1.0) -> list[Bivector]:
    """delta(psi) = (1/2) <psi, [y_i, y_j]> psi^i ^ psi^j;
    delta(x) = sum_i P_b [y_i, x] ^ psi^i.   One bivector per e-basis vector."""
    mp = ea.mp
    k, m = ea.k, ea.m
    n = k + m
    out = []
    c_struct = mp.c_structure
    for i in range(k):
        coeffs = np.zeros((n, n))
        coeffs[:k, :k] = b0_sign * c_struct[:, :, i]
        out.append(Bivector(mp.e_space, coeffs))
    for j in range(m):
        coeffs = np.zeros((n, n))
        x = mp._B[:, j]
        for i in range(k):
            t = mp.b_coords(mp.g.bracket_coords(mp.y_basis[i], x))
            coeffs[k:, i] += t
            coeffs[i, k:] -= t
        out.append(Bivector(mp.e_space, coeffs))
    return out


def delta_from_eta(mp: MatchedPair, step: float = FD_STEP) -> list[Bivector]:
    """Linearization of the group cocycle at the identity along exp-curves."""
    k, m = mp.dim_c, mp.dim_b
    out = []
    for i in range(k):
        def curve(t, i=i):
            el = EElement(mp, t * np.eye(k)[i], identity_element(mp))
            return eta(mp, el).coeffs.ravel()

        d = finite_diff(curve, 0.0, step).reshape(k + m, k + m)
        out.append(Bivector(mp.e_space, d))
    for j in range(m):
        def curve(t, j=j):
            el = EElement(mp, np.zeros(k), exp_b(mp, np.eye(m)[j], t))
            return eta(mp, el).coeffs.ravel()

        d = finite_diff(curve, 0.0, step).reshape(k + m, k + m)
        out.append(Bivector(mp.e_space, d))
    return out


def delta_consistency_residual(ea: EAlgebra, b0_sign: float = 1.0,
                               step: float = FD_STEP) -> float:
    direct = delta_direct(ea, b0_sign=b0_sign)
    from_eta = delta_from_eta(ea.mp, step)
    return worst(*((d - f).max_norm() for d, f in zip(direct, from_eta)))


# -- axioms -------------------------------------------------------------------


def _alt3(t: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (six signed permutations, no normalization)."""
    return (t - np.transpose(t, (1, 0, 2)) + np.transpose(t, (1, 2, 0))
            - np.transpose(t, (2, 1, 0)) + np.transpose(t, (2, 0, 1))
            - np.transpose(t, (0, 2, 1)))


def co_jacobi_residual(delta: list[Bivector]) -> float:
    """max over basis X of | Alt((delta (x) id) delta(X)) |."""
    stack = np.array([d.coeffs for d in delta])
    out = 0.0
    for x in range(len(delta)):
        t = np.tensordot(stack, delta[x].coeffs, axes=(0, 0))   # t[p, q, b]
        out = worst(out, np.max(np.abs(_alt3(t))))
    return out


def cocycle_1_residual(ea: EAlgebra, delta: list[Bivector]) -> float:
    """max over basis pairs of | delta([X,Y]) - X.delta(Y) + Y.delta(X) |,
    one basis vector X = e_i at a time against every Y = e_j, j > i."""
    c = ea.e.structure
    stack = np.array([d.coeffs for d in delta])
    ad = np.swapaxes(c, 1, 2)                  # ad(e_i) = structure[i]^T
    out = 0.0
    for i in range(ea.e.dim - 1):
        lhs = np.tensordot(c[i, i + 1:], stack, axes=1)
        xi_dj = ad[i] @ stack[i + 1:] + stack[i + 1:] @ ad[i].T
        xj_di = ad[i + 1:] @ stack[i] + stack[i] @ np.swapaxes(ad[i + 1:], 1, 2)
        out = worst(out, np.max(np.abs(lhs - xi_dj + xj_di)))
    return out


def check_cobracket_axioms(ea: EAlgebra, delta: list[Bivector]) -> dict:
    co_j = co_jacobi_residual(delta)
    coc = cocycle_1_residual(ea, delta)
    return {
        "co_jacobi_residual": co_j,
        "cocycle_residual": coc,
        "pass": bool(worst(co_j, coc) <= ALGEBRAIC_TOL),
    }


def dual_bracket_structure(delta: list[Bivector]) -> np.ndarray:
    """Structure constants on e* dual to delta: [e*_i, e*_j] = sum_k delta(e_k)_ij e*_k."""
    n = len(delta)
    c = np.zeros((n, n, n))
    for k in range(n):
        c[:, :, k] = delta[k].coeffs
    return c


# -- r-matrix for Iwasawa pairs -------------------------------------------------


def normalize_z(entry, tol: float = ALGEBRAIC_TOL) -> np.ndarray:
    """Rescale a central candidate so ad(z)^2 = -1 on the symmetric part."""
    g = entry.g
    z = np.asarray(entry.z, dtype=float)
    for row in entry.cartan.parts["k"]:
        if not np.max(np.abs(g.bracket_coords(z, row))) <= tol:
            raise ValueError("z is not central in k")
    ad2 = g.ad_matrix_coords(z) @ g.ad_matrix_coords(z)
    p_rows = entry.cartan.parts["p"]
    lams = []
    for row in p_rows:
        w = ad2 @ row
        lam = -float(np.dot(w, row) / np.dot(row, row))
        lams.append(lam)
        if not np.max(np.abs(w + lam * row)) <= 1e-6:
            raise ValueError("ad(z)^2 does not act as a scalar on the symmetric part")
    lam = float(np.mean(lams))
    if not (lam > 0 and np.max(np.abs(np.array(lams) - lam)) <= 1e-6):
        raise ValueError("ad(z)^2 eigenvalue on p is not a negative constant")
    z = z / np.sqrt(lam)
    ad2 = g.ad_matrix_coords(z) @ g.ad_matrix_coords(z)
    resid = worst(*(np.max(np.abs(ad2 @ row + row)) for row in p_rows))
    if not resid <= tol:
        raise ValueError(f"z normalization residual {resid:.3e}")
    return z


def act_on_bivector(ea: EAlgebra, x_e: np.ndarray, c: Bivector) -> Bivector:
    a = ea.e.ad_matrix_coords(x_e)
    return Bivector(ea.mp.e_space, a @ c.coeffs + c.coeffs @ a.T)


def r_matrix(entry, ea: EAlgebra) -> dict:
    """Route A: r = z.delta(z).  Route B: r = sum_i P^C_k y_i ^ psi^i."""
    mp = ea.mp
    k, m = ea.k, ea.m
    z = normalize_z(entry)
    zb = mp.b_coords(z)
    z_e = np.concatenate([np.zeros(k), zb])

    delta = delta_direct(ea)
    delta_z = Bivector(mp.e_space, np.einsum(
        "a,apq->pq", z_e, np.array([d.coeffs for d in delta])))
    route_a = act_on_bivector(ea, z_e, delta_z)

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
        "relative_sign": 1.0 if (route_a - route_b).max_norm()
        <= (route_a + route_b).max_norm() else -1.0,
        "k_wedge_k0_block_residual": block_resid,
        "z_normalized": z,
    }


def check_coboundary(ea: EAlgebra, delta: list[Bivector], r: Bivector,
                     scale: float = 1.0) -> dict:
    """Residual of delta(X) = [r, Delta X] = -X.r on every basis vector."""
    r = scale * r
    n = ea.e.dim
    out = 0.0
    for i in range(n):
        lhs = delta[i]
        rhs = (-1.0) * act_on_bivector(ea, np.eye(n)[i], r)
        out = worst(out, (lhs - rhs).max_norm())
    return {"max_residual": out, "pass": bool(out <= ALGEBRAIC_TOL)}


#: Pending invariance rows are folded into their R factor once they number
#: this many times its width.
FOLD_ROWS = 4


def invariance_rows(ea: EAlgebra, x: int, drop_b0_rows: bool = False) -> np.ndarray:
    """The invariance equations on the candidates for basis vector x, one column per candidate.

    Candidates are the unit tensors x_a (x) psi_b, then psi_b (x) x_a, as n x n
    matrices t (t[k + a, b] = 1, then t[b, k + a] = 1); column (f, a, b) is
    candidate (a, b) of family f and holds vec(A t + t A^T), A = ad_e(x).
    `drop_b0_rows` drops the action on the k0 legs (the negative control of
    `check_r_uniqueness`)."""
    k, m, n = ea.k, ea.m, ea.e.dim
    ad = ea.e.ad_matrix_coords(np.eye(n)[x])
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


def _fold(r: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """The R factor of r stacked on rows: the same Gram matrix in at most width rows."""
    stacked = np.vstack([r, *rows])
    if not len(stacked):
        return stacked
    return scipy.linalg.qr(stacked, mode="r", overwrite_a=True)[0][:stacked.shape[1]]


def uniqueness_singular_values(ea: EAlgebra, drop_b0_rows: bool = False) -> np.ndarray:
    """Singular values of the invariance equations on the candidates, largest first.

    The equations are streamed one basis vector at a time: rows that are
    exactly zero are dropped, and the rest are folded into running R factors
    (TSQR), so only O((n^2 + km) km) numbers are held.  The flip t -> t^T
    commutes with the action and swaps the two candidate families, so row
    (r, s) on one family equals row (s, r) on the other, bit for bit.  The
    rows that touch the psi (x) x family only are therefore the flips of those
    that touch the x (x) psi family only and share their R factor: it is
    built once, at half the width.  Rows touching both families go to a
    full-width factor, and the factors are folded together at the end."""
    k, m, n = ea.k, ea.m, ea.e.dim
    half = k * m
    factors = [np.zeros((0, half)), np.zeros((0, 2 * half))]
    pending: list[list[np.ndarray]] = [[], []]
    for x in range(k, n) if drop_b0_rows else range(n):
        rows = invariance_rows(ea, x, drop_b0_rows)
        touches = (rows.reshape(len(rows), 2, half) != 0).any(axis=2)
        for f, block in enumerate((rows[touches[:, 0] & ~touches[:, 1], :half],
                                   rows[touches.all(axis=1)])):
            if len(block):
                pending[f].append(block)
            if sum(len(b) for b in pending[f]) >= FOLD_ROWS * factors[f].shape[1]:
                factors[f], pending[f] = _fold(factors[f], pending[f]), []
    one, mixed = (_fold(r, p) if p else r for r, p in zip(factors, pending))
    zero = np.zeros_like(one)
    r = _fold(mixed, [np.hstack([one, zero]), np.hstack([zero, one])])
    return np.linalg.svd(r, compute_uv=False)


def check_r_uniqueness(ea: EAlgebra, svd_tol: float = SVD_TOL,
                       drop_b0_rows: bool = False) -> dict:
    """Dimension of invariant elements of (k (x) k0) (+) (k0 (x) k).

    Candidates are spanned by x_a (x) psi_b and psi_b (x) x_a; the action of a
    basis vector X is ad_e(X) on both tensor legs.  With `drop_b0_rows` the
    equations for X in b0 are removed and the action on the k0 legs is dropped
    (the documented negative control; central elements then survive)."""
    svals = uniqueness_singular_values(ea, drop_b0_rows)
    count = 2 * ea.k * ea.m
    kernel_dim = int(count - np.sum(svals > svd_tol))
    return {
        "kernel_dim": kernel_dim,
        "svd_threshold": svd_tol,
        "pass": bool(kernel_dim == 0),
        # fewer rows than candidates leaves exact zeros the SVD does not list
        "smallest_sv": float(svals[-1]) if len(svals) == count else 0.0,
    }
