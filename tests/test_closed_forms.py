"""The closed-form tensor contractions against index-loop references.

Each reference below is the term-by-term definition the contraction replaces.
On the catalog data several of these tensors vanish ([s, s] and d s for the
twist element), so the comparisons run on dense random inputs, where every
index contributes."""

import tracemalloc

import numpy as np
import pytest

from poissonlie.bialgebra import (_alt3, _cocycle_dense, _cocycle_sparse, _components,
                                  check_r_uniqueness, co_jacobi_worst_at, cocycle_1_worst_at,
                                  restricted_singular_values, torus_element, torus_kernel,
                                  uniqueness_generators)
from poissonlie import bialgebra, lie
from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.lie import (IM_TRACE, RE_TRACE, LieAlgebra, SubspaceDecomposition, _jacobi_dense,
                            _jacobi_sparse, from_realization, jacobi_worst_at,
                            meet_runs, snap_dyadic, structure_in_basis, takes_sparse_path,
                            trace_gram)
from poissonlie.manin import build_gc_algebra
from poissonlie.linalg import BasedSpace
from poissonlie.manin import (cobracket_on_gstar, cprime_residual, deform_bracket,
                              g_structure_in_model_basis, gc_compact_half, gerstenhaber_d,
                              gprime_half, schouten_square)
from poissonlie.matched import MatchedPair
from references import commutators

PAIRS = ["su21", "su31"]


@pytest.fixture(scope="module", params=PAIRS)
def entry(request):
    return get_entry(request.param)


def _rng(entry):
    return np.random.default_rng(entry.g.dim)


def _dense_bivector(entry) -> np.ndarray:
    n = entry.gstar.dim
    s = _rng(entry).standard_normal((n, n))
    return 0.5 * (s - s.T)


def _dense_cobracket(entry, seed: int) -> np.ndarray:
    n = entry.gstar.dim
    c = np.random.default_rng(seed).standard_normal((n, n, n))
    return 0.5 * (c - np.swapaxes(c, 1, 2))


def _close(got, want):
    scale = np.max(np.abs(want))
    assert scale > 1e-3        # the input is not degenerate
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


# -- index-loop references -------------------------------------------------------


def schouten_square_loop(alg, s: np.ndarray) -> np.ndarray:
    """[s, s] term by term, s = sum_{a<b} s_ab a^b, from the decomposable rule
    [a^b, c^d] = [a,c]^b^d - [a,d]^b^c - [b,c]^a^d + [b,d]^a^c.  The
    antisymmetrization is linear, so it is applied once at the end."""
    n = alg.dim
    c = alg.structure
    t = np.zeros((n, n, n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in pairs:
        for cc, d in pairs:
            coef = s[a, b] * s[cc, d]
            t[:, b, d] += coef * c[a, cc]
            t[:, b, cc] -= coef * c[a, d]
            t[:, a, d] -= coef * c[b, cc]
            t[:, a, cc] += coef * c[b, d]
    return _alt3(t)


def gerstenhaber_d_loop(n: int, delta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d s = sum_ab (1/2) s_ab (delta(a)^b - delta(b)^a), one basis pair at a time."""
    def wedge2_1(c, w):
        t = np.einsum("pq,r->pqr", c, w)
        return t + np.transpose(t, (1, 2, 0)) + np.transpose(t, (2, 0, 1))

    eye = np.eye(n)
    out = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            out += 0.5 * s[a, b] * (wedge2_1(delta[a], eye[b]) - wedge2_1(delta[b], eye[a]))
    return out


def trace_pairing(x: np.ndarray, y: np.ndarray, spec: str) -> float:
    """Invariant pairing of two complex matrices: Im tr(xy), else Re tr(xy)."""
    t = np.trace(x @ y)
    return float(t.imag if spec == IM_TRACE else t.real)


def jacobi_tensor(c: np.ndarray) -> np.ndarray:
    """The full n^4 Jacobi tensor [[i,j],k] + [[j,k],i] + [[k,i],j]."""
    return (np.einsum("ijl,lkm->ijkm", c, c) + np.einsum("jkl,lim->ijkm", c, c)
            + np.einsum("kil,ljm->ijkm", c, c))


def cobracket_on_gstar_loop(entry, half) -> list[np.ndarray]:
    gs = entry.gstar
    n = gs.dim
    pair = np.array([[trace_pairing(gs.realization[a], h, IM_TRACE) for h in half]
                     for a in range(n)])
    w = np.linalg.solve(pair.T, np.eye(n))
    out = []
    for idx in range(n):
        h = np.array([[trace_pairing(gs.realization[idx], half[a] @ half[b] - half[b] @ half[a],
                                     IM_TRACE) for b in range(n)] for a in range(n)])
        out.append(w @ h @ w.T)
    return out


def cprime_residual_loop(entry, delta_g, delta_other, sign) -> float:
    g, gs = entry.g, entry.gstar
    n = g.dim
    pair = np.array([[trace_pairing(gs.realization[a], g.realization[x], IM_TRACE)
                      for x in range(n)] for a in range(n)])
    p_parts = [entry.cartan.project("p", np.eye(n)[x]) for x in range(n)]
    out = 0.0
    for idx in range(n):
        lhs = pair.T @ (delta_g[idx] - delta_other[idx]) @ pair
        rhs = np.zeros((n, n))
        for x in range(n):
            for y in range(x + 1, n):
                br = g.matrix_of(g.bracket_coords(p_parts[x], p_parts[y]))
                rhs[x, y] = trace_pairing(gs.realization[idx], br, IM_TRACE)
                rhs[y, x] = -rhs[x, y]
        out = max(out, np.max(np.abs(lhs - sign * rhs)))
    return out


def jacobi_loop(c: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The Jacobi residual over every triple (i, j, k), one triple at a time,
    with the first NaN, else the first largest, triple."""
    n = c.shape[0]
    out, at = 0.0, (0, 0, 0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = np.max(np.abs(c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j]))
                if np.isnan(r):
                    return float(r), (i, j, k)
                if r > out:
                    out, at = float(r), (i, j, k)
    return out, at


def co_jacobi_loop(delta: np.ndarray) -> float:
    """max over basis X of | Alt((delta (x) id) delta(X)) |, one X at a time."""
    out = 0.0
    for x in range(len(delta)):
        t = np.tensordot(delta, delta[x], axes=(0, 0))   # t[p, q, b]
        out = max(out, float(np.max(np.abs(_alt3(t)))))
    return out


def uniqueness_operator_kron(mp, drop_b0_rows: bool, elements=None) -> np.ndarray:
    """The candidate operator through kron(a, 1) + kron(1, a) on vec(n x n),
    with the candidates x_a (x) psi_b first, then psi_b (x) x_a, stacked over
    `elements` of e (rows of e-coordinates; every basis vector by default).
    A candidate is a unit tensor, so its column is the kron column at its
    index, kron(a[:, i], 1[:, j]) + kron(1[:, i], a[:, j]) for t[i, j] = 1."""
    e = mp.e_algebra
    k, m, n = mp.dim_c, mp.dim_b, e.dim
    cands = []
    for family in range(2):
        for a in range(m):
            for b in range(k):
                cands.append((k + a, b) if family == 0 else (b, k + a))
    i, j = np.array(cands).T
    eye = np.eye(n)
    rows = []
    for x in np.eye(n) if elements is None else elements:
        a = e.ad_matrix_coords(x)
        if drop_b0_rows:
            a[:k, :] = 0.0
            a[:, :k] = 0.0
        rows.append(np.einsum("rc,sc->rsc", a[:, i], eye[:, j]).reshape(n * n, -1)
                    + np.einsum("rc,sc->rsc", eye[:, i], a[:, j]).reshape(n * n, -1))
    return np.vstack(rows)


def kron_kernel_dim(mp, drop_b0_rows: bool, tol: float = 1e-8) -> int:
    """Dimension of the common kernel of `uniqueness_operator_kron` over all
    of e, by successive restriction: the kernel of a random element's
    equations, then of each basis vector's on what is left (the random
    element only makes the first kernel small; the common kernel lies in it)."""
    n = mp.e_algebra.dim
    null = np.eye(2 * mp.dim_c * mp.dim_b)
    for x in (np.random.default_rng(n).standard_normal(n), *np.eye(n)):
        rows = uniqueness_operator_kron(mp, drop_b0_rows, [x]) @ null
        if not len(null.T) or not rows.any():
            continue
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        null = null @ vt[np.sum(s > tol):].T
    return len(null.T)


# -- the dense two-generator path, the oracle of the torus certificate -----------


def invariance_rows(mp, x: np.ndarray, drop_b0_rows: bool = False) -> np.ndarray:
    """The invariance equations on the candidates for the element x of e (given
    by its e-coordinates), one column per candidate.

    Candidates are the unit tensors x_a (x) psi_b, then psi_b (x) x_a, as n x n
    matrices t (t[k + a, b] = 1, then t[b, k + a] = 1); column (f, a, b) is
    candidate (a, b) of family f and holds vec(A t + t A^T), A = ad_e(x).
    `drop_b0_rows` drops the action on the k0 legs."""
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
    """`invariance_rows` in orthonormal bases that split them in two: the
    symmetric block, in the coordinates (S_ii, sqrt 2 S_ij for i < j) of its
    images, and the antisymmetric block in the coordinates sqrt 2 S_ij,
    i < j; their singular values together are those of `rows`."""
    t = rows.reshape(n, n, 2, -1)
    iu, ju = np.triu_indices(n, 1)
    diag = np.arange(n)
    sym = np.vstack([(t[diag, diag, 0] + t[diag, diag, 1]) / np.sqrt(2.0),
                     t[iu, ju, 0] + t[iu, ju, 1]])
    return sym, t[iu, ju, 0] - t[iu, ju, 1]


def uniqueness_singular_values(mp, drop_b0_rows: bool = False) -> np.ndarray:
    """The singular values of the invariance equations of the two
    `uniqueness_generators`, stacked: those of the symmetric block, then
    those of the antisymmetric one.  Each block keeps its nonzero rows and
    takes one SVD; a block with none gives no values."""
    gens = uniqueness_generators(mp.e_algebra.dim)
    blocks = [[r[(r != 0).any(axis=1)]
               for r in symmetric_blocks(invariance_rows(mp, x, drop_b0_rows), mp.e_algebra.dim)]
              for x in gens]
    svals = [np.zeros(0)]
    for block in zip(*blocks):
        rows = np.vstack(block)
        if len(rows):
            svals.append(np.linalg.svd(rows, compute_uv=False))
    return np.concatenate(svals)


# -- comparisons ---------------------------------------------------------------------


def test_schouten_square_matches_loop(entry):
    s = _dense_bivector(entry)
    _close(schouten_square(entry.gstar, s), schouten_square_loop(entry.gstar, s))


def test_gerstenhaber_d_matches_loop(entry):
    s = _dense_bivector(entry)
    delta = _dense_cobracket(entry, 5)
    n = entry.gstar.dim
    _close(gerstenhaber_d(delta, s), gerstenhaber_d_loop(n, delta, s))


def test_jacobi_residual_matches_full_tensor(entry):
    # a dense antisymmetric table is far from a Lie algebra
    n = entry.g.dim
    c = _rng(entry).standard_normal((n, n, n))
    c = c - np.swapaxes(c, 0, 1)
    want = float(np.max(np.abs(jacobi_tensor(c))))
    assert want > 1.0
    assert jacobi_worst_at(c)[0] == pytest.approx(want, rel=1e-13)
    assert jacobi_worst_at(entry.g.structure)[0] <= 1e-12


def test_jacobi_residual_propagates_nan(entry):
    c = entry.g.structure.copy()
    c[-1, -2, 0] = np.nan
    assert np.isnan(jacobi_worst_at(c)[0])


@pytest.mark.parametrize("spec", [IM_TRACE, RE_TRACE])
def test_trace_gram_matches_trace_pairing(entry, spec):
    rng = _rng(entry)
    d = entry.p + 1
    xs = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    ys = list(entry.gstar.realization)
    want = np.array([[trace_pairing(x, y, spec) for y in ys] for x in xs])
    _close(trace_gram(xs, ys, spec), want)


def test_cobracket_on_gstar_matches_loop(entry):
    # a dense random basis of g as the half, so every pairing entry is nonzero
    coeffs = _rng(entry).standard_normal((entry.g.dim, entry.g.dim))
    half = list(entry.g.matrix_of(coeffs))
    _close(cobracket_on_gstar(entry, half), np.array(cobracket_on_gstar_loop(entry, half)))


def test_cprime_residual_matches_loop(entry):
    # the catalog cobrackets plus a dense perturbation: both sides of the
    # relation are of the same size, so the sign of either one shows
    dg = cobracket_on_gstar(entry, list(entry.g.realization))
    do = cobracket_on_gstar(entry, gprime_half(entry)) + 0.1 * _dense_cobracket(entry, 12)
    for sign in (+1.0, -1.0):
        want = cprime_residual_loop(entry, dg, do, sign)
        assert cprime_residual(entry, dg, do, sign) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_invariance_rows_match_kron(entry, drop_b0_rows):
    mp = entry.mp
    n = mp.e_algebra.dim
    xs = np.eye(n)[mp.dim_c:] if drop_b0_rows else np.eye(n)
    got = np.vstack([invariance_rows(mp, x, drop_b0_rows) for x in xs])
    want = uniqueness_operator_kron(mp, drop_b0_rows, xs)
    assert got.shape == want.shape == (len(xs) * n ** 2, 2 * mp.dim_c * mp.dim_b)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_invariance_rows_are_linear_in_the_element(entry, drop_b0_rows):
    # the rows of sum_x X_x e_x are sum_x X_x rows(e_x), knob included
    mp = entry.mp
    n = mp.e_algebra.dim
    basis_rows = np.array([invariance_rows(mp, x, drop_b0_rows) for x in np.eye(n)])
    for x in (*uniqueness_generators(n), _rng(entry).standard_normal(n)):
        _close(invariance_rows(mp, x, drop_b0_rows), np.tensordot(x, basis_rows, axes=1))


@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_flip_swaps_the_candidate_families(entry, drop_b0_rows):
    # (A t + t A^T)^T = A t^T + t^T A^T and t -> t^T swaps the two families
    mp = entry.mp
    n, half = mp.e_algebra.dim, mp.dim_c * mp.dim_b
    for x in (*np.eye(n), *uniqueness_generators(n)):
        rows = invariance_rows(mp, x, drop_b0_rows).reshape(n, n, 2, half)
        assert np.array_equal(rows[:, :, 1], rows.transpose(1, 0, 2, 3)[:, :, 0])


def _torus_oracle_svals(entry, drop_b0_rows: bool, torus=None) -> np.ndarray:
    """The singular values of the Kronecker operator of H alone, descending."""
    mp = entry.mp
    h = torus_element(mp, entry.torus if torus is None else torus)
    return np.linalg.svd(uniqueness_operator_kron(mp, drop_b0_rows, [h]), compute_uv=False)


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_streamed_uniqueness_matches_dense_svd(name, drop_b0_rows):
    # the kernel over the two generators is the kernel over every basis
    # vector, and the torus margin is the smallest singular value of H's
    # Kronecker operator
    entry = get_entry(name)
    mp = entry.mp
    count = 2 * mp.dim_c * mp.dim_b
    full = np.linalg.svd(uniqueness_operator_kron(mp, drop_b0_rows), compute_uv=False)
    gens = np.linalg.svd(uniqueness_operator_kron(mp, drop_b0_rows,
                                                  uniqueness_generators(mp.e_algebra.dim)),
                         compute_uv=False)
    torus = _torus_oracle_svals(entry, drop_b0_rows)
    assert len(full) == len(gens) == len(torus) == count
    rep = check_r_uniqueness(mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    assert rep["kernel_dim"] == count - np.sum(full > 1e-8) == count - np.sum(gens > 1e-8)
    assert rep["kernel_dim"] == (0 if not drop_b0_rows else 2 * mp.dim_c)
    assert rep["torus_smallest_sv"] == pytest.approx(torus[-1], abs=1e-13 * torus[0])
    assert rep["torus_kernel_dim"] == count - np.sum(torus > 1e-8)
    assert rep["generation_deficit"] == 0


def test_uniqueness_with_no_nonzero_rows():
    # su11 under the knob: ad_b of a one-dimensional b is zero, so no row is left
    entry = get_entry("su11")
    mp = entry.mp
    rows = [invariance_rows(mp, x, True) for x in uniqueness_generators(mp.e_algebra.dim)]
    assert not np.any(rows)
    # so both blocks of the split SVD are empty and give no singular values
    assert not any(np.any(b) for r in rows for b in symmetric_blocks(r, mp.e_algebra.dim))
    assert len(uniqueness_singular_values(mp, drop_b0_rows=True)) == 0
    # and H's equations are zero too: K is every candidate, the margin 0
    count = 2 * mp.dim_c * mp.dim_b
    rep = check_r_uniqueness(mp, entry.torus, drop_b0_rows=True)
    assert rep["kernel_dim"] == rep["torus_kernel_dim"] == count
    assert rep["torus_smallest_sv"] == _torus_oracle_svals(entry, True)[-1] == 0.0


def _stacked_rows_svd(mp, drop_b0_rows: bool) -> np.ndarray:
    """One SVD of the nonzero invariance rows of both generators, unsplit."""
    rows = np.vstack([r[(r != 0).any(axis=1)] for r in
                      (invariance_rows(mp, x, drop_b0_rows)
                       for x in uniqueness_generators(mp.e_algebra.dim))])
    return np.linalg.svd(rows, compute_uv=False) if len(rows) else np.zeros(0)


def _padded(svals: np.ndarray, count: int) -> np.ndarray:
    """Singular values in descending order, with the zeros an SVD of fewer
    rows than columns does not list."""
    return np.sort(np.concatenate([svals, np.zeros(count - len(svals))]))[::-1]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_split_uniqueness_svd_matches_stacked_svd(p, drop_b0_rows):
    # su11-su41 and supq1(5): the two blocks have the singular values of the
    # stacked rows, and the kernel is 0, or 4p under the knob
    entry = su11() if p == 1 else supq1(p)
    mp = entry.mp
    count = 2 * mp.dim_c * mp.dim_b
    split = uniqueness_singular_values(mp, drop_b0_rows)
    assert len(split) <= count
    want = _padded(_stacked_rows_svd(mp, drop_b0_rows), count)
    assert np.max(np.abs(_padded(split, count) - want)) <= 1e-12
    rep = check_r_uniqueness(mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    assert rep["kernel_dim"] == count - np.sum(want > 1e-8) == (4 * p if drop_b0_rows else 0)
    assert rep["generation_deficit"] == 0


def test_symmetric_blocks_are_an_orthogonal_change_of_basis():
    # the blocks keep the Frobenius norm of the rows and of every product of them
    mp = get_entry("su21").mp
    n = mp.e_algebra.dim
    rows = invariance_rows(mp, uniqueness_generators(n)[1])
    sym, anti = symmetric_blocks(rows, n)
    half = mp.dim_c * mp.dim_b
    assert sym.shape == (n * (n + 1) // 2, half) and anti.shape == (n * (n - 1) // 2, half)
    gram = rows.T @ rows
    q = np.block([[np.eye(half), np.eye(half)], [np.eye(half), -np.eye(half)]]) / np.sqrt(2.0)
    want = q.T @ gram @ q
    assert np.max(np.abs(want[:half, half:])) <= 1e-12
    _close(sym.T @ sym, want[:half, :half])
    _close(anti.T @ anti, want[half:, half:])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_torus_certificate_matches_the_kernel_over_all_of_e(p, drop_b0_rows):
    entry = su11() if p == 1 else supq1(p)
    mp = entry.mp
    rep = check_r_uniqueness(mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    assert rep["kernel_dim"] == kron_kernel_dim(mp, drop_b0_rows) == (4 * p if drop_b0_rows else 0)
    # K is 0 on the catalog, and under the knob every candidate whose b leg
    # lies in the torus: 2 families x 2p psi x p torus directions
    assert rep["torus_kernel_dim"] == (4 * p * p if drop_b0_rows else 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_torus_equations_have_the_kron_singular_values(p, drop_b0_rows):
    # one family's k m values, once per family, against the Kronecker
    # operator of H alone
    entry = su11() if p == 1 else supq1(p)
    mp = entry.mp
    svals, basis = torus_kernel(mp, torus_element(mp, entry.torus), 1e-8, drop_b0_rows)
    assert len(svals) == mp.dim_c * mp.dim_b
    got = np.sort(np.concatenate([svals, svals]))[::-1]
    want = _torus_oracle_svals(entry, drop_b0_rows)
    assert np.max(np.abs(got - want)) <= 1e-12
    # the kernel basis is orthonormal and annihilated by A0 T + T Ab^T
    ad = mp.e_algebra.ad_matrix_coords(torus_element(mp, entry.torus))
    k = mp.dim_c
    a0 = 0.0 * ad[:k, :k] if drop_b0_rows else ad[:k, :k]
    flat = basis.reshape(len(basis), k * mp.dim_b)
    assert np.max(np.abs(flat @ flat.T - np.eye(len(basis))), initial=0.0) <= 1e-12
    assert np.max(np.abs(a0 @ basis + basis @ ad[k:, k:].T), initial=0.0) <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_restricted_svd_on_every_candidate_matches_the_dense_generators(p, drop_b0_rows):
    # K = every candidate (H = 0): the restricted blocks have the singular
    # values of the dense two-generator path, block by block
    mp = (su11() if p == 1 else supq1(p)).mp
    k, m = mp.dim_c, mp.dim_b
    count = 2 * k * m
    got = restricted_singular_values(mp, np.eye(k * m).reshape(k * m, k, m), drop_b0_rows)
    want = uniqueness_singular_values(mp, drop_b0_rows)
    assert len(got) == len(want)
    assert np.max(np.abs(_padded(got, count) - _padded(want, count)), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", ["su21", "su31"])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_torus_certificate_in_a_random_basis(name, drop_b0_rows):
    # b and c in random bases: ad_e(H) is dense, so H's equations are one
    # k m x k m piece, and A0, Ab are not antisymmetric
    entry = get_entry(name)
    mp = _random_basis_pair(name, 3)
    h = torus_element(mp, entry.torus)
    svals, basis = torus_kernel(mp, h, 1e-8, drop_b0_rows)
    k, m = mp.dim_c, mp.dim_b
    got = np.sort(np.concatenate([svals, svals]))[::-1]
    want = np.linalg.svd(uniqueness_operator_kron(mp, drop_b0_rows, [h]), compute_uv=False)
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
    ad = mp.e_algebra.ad_matrix_coords(h)
    a0 = 0.0 * ad[:k, :k] if drop_b0_rows else ad[:k, :k]
    assert np.max(np.abs(a0 @ basis + basis @ ad[k:, k:].T), initial=0.0) <= 1e-12 * want[0]
    rep = check_r_uniqueness(mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    clean = check_r_uniqueness(entry.mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    assert rep["kernel_dim"] == clean["kernel_dim"] == (4 * entry.p if drop_b0_rows else 0)
    assert rep["torus_kernel_dim"] == clean["torus_kernel_dim"]


def _degenerate_tori(entry) -> dict:
    """Tori that certify less: H = 0 (no row, or a zero row), H along the sum
    of the torus rows (all weights equal: central in k, so under the knob it
    acts by 0), and the first torus row alone (not maximal for p > 1)."""
    dim = entry.g.dim
    return {"empty": np.zeros((0, dim)), "zero": np.zeros((1, dim)),
            "equal_weights": entry.torus.sum(axis=0, keepdims=True),
            "one_row": entry.torus[:1]}


@pytest.mark.parametrize("name", ["su11", "su21", "su31"])
@pytest.mark.parametrize("drop_b0_rows", [False, True])
@pytest.mark.parametrize("torus", ["empty", "zero", "equal_weights", "one_row"])
def test_a_degenerate_torus_gives_the_same_kernel_dim(name, drop_b0_rows, torus):
    entry = get_entry(name)
    mp = entry.mp
    count = 2 * mp.dim_c * mp.dim_b
    rows = _degenerate_tori(entry)[torus]
    rep = check_r_uniqueness(mp, rows, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    want = check_r_uniqueness(mp, entry.torus, svd_tol=1e-8, drop_b0_rows=drop_b0_rows)
    assert rep["kernel_dim"] == want["kernel_dim"]
    # K is the kernel of H's Kronecker operator, and every candidate for H = 0
    oracle = _torus_oracle_svals(entry, drop_b0_rows, rows)
    assert rep["torus_kernel_dim"] == count - np.sum(oracle > 1e-8)
    if torus in ("empty", "zero"):
        assert rep["torus_kernel_dim"] == count and rep["torus_smallest_sv"] == 0.0
    # the restricted SVD ran on a K larger than the maximal torus leaves: on
    # su31, kD_1 alone centralizes u(1) + u(2), not just the torus
    if torus == "one_row" and name == "su31":
        assert rep["torus_kernel_dim"] > want["torus_kernel_dim"]


@pytest.mark.parametrize("drop_b0_rows", [False, True])
def test_the_certificate_allocates_no_dense_equations(drop_b0_rows):
    # the dense (n^2, 2km) equations of one element are 15.9 MB at p = 6;
    # K = 0 needs only the pieces, and the knob's K = 4p^2 candidates a
    # fraction of the dense array
    import tracemalloc

    entry = supq1(6)
    mp = entry.mp
    n, half = mp.e_algebra.dim, mp.dim_c * mp.dim_b     # e is built before the trace
    tracemalloc.start()
    try:
        check_r_uniqueness(mp, entry.torus, drop_b0_rows=drop_b0_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (0.3 if drop_b0_rows else 0.02) * n * n * 2 * half * 8


def test_the_knob_takes_one_svd_per_component():
    # under the knob, candidates of different b0 rows share no equation: at
    # p = 8 the check with one SVD of each block's 128 candidates peaked at
    # 9.76 MB (numpy 2.4.6), with one SVD per component at 6.7 MB
    entry = supq1(8)
    mp = entry.mp
    mp.e_algebra                        # built before the trace
    rep, peak = _peak_bytes(lambda: check_r_uniqueness(mp, entry.torus, drop_b0_rows=True))
    assert rep["kernel_dim"] == 32 and rep["torus_kernel_dim"] == 256
    assert peak < 8.0e6


def test_components_group_by_size():
    # a 2-cycle, a path of three read through a[j, i] only, and an isolated index
    a = np.zeros((6, 6))
    a[0, 3] = a[3, 0] = 1.0
    a[4, 1] = a[5, 4] = 2.0
    got = _components(a)
    assert sorted(got) == [1, 2, 3]
    assert got[1].tolist() == [[2]]
    assert got[2].tolist() == [[0, 3]]
    assert got[3].tolist() == [[1, 4, 5]]


def _corrupted_delta(mp) -> np.ndarray:
    delta = mp.delta.copy()
    delta[mp.dim_c] *= -1.0      # the delta_sign_one_basis knob
    return delta


@pytest.mark.parametrize("which", ["e", "corrupted", "gstar", "random"])
def test_co_jacobi_matches_loop(entry, which):
    delta = {"e": lambda: entry.mp.delta,
             "corrupted": lambda: _corrupted_delta(entry.mp),
             "gstar": lambda: cobracket_on_gstar(entry, list(entry.g.realization)),
             "random": lambda: _dense_cobracket(entry, 3)}[which]()
    want = co_jacobi_loop(delta)
    got, (i, j, k) = co_jacobi_worst_at(delta)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
    if which == "random":
        assert want > 1e-3
        # the witness is where the residual is attained: twice the cyclic sum there
        t = np.tensordot(delta, delta, axes=(0, 1))             # t[p, q, x, b]
        cyc = t[i, j, :, k] + t[j, k, :, i] + t[k, i, :, j]
        assert 2 * np.max(np.abs(cyc)) == pytest.approx(got, rel=1e-13)


@pytest.mark.parametrize("n", [2, 5, 8, 11])
def test_jacobi_half_slices_match_loop(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal((n, n, n))
    c = c - np.swapaxes(c, 0, 1)
    want, _ = jacobi_loop(c)
    got, (i, j, k) = jacobi_worst_at(c)
    assert got == pytest.approx(want, rel=1e-13)
    assert i < j
    # the witness is where the residual is attained
    at = np.max(np.abs(c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j]))
    assert at == pytest.approx(got, rel=1e-13)


def test_jacobi_witness_names_the_perturbed_triple():
    # [e0, e1] = e2 alone is a Lie algebra (Heisenberg plus abelian directions);
    # adding [e2, e3] = d e4 breaks Jacobi on the triple {0, 1, 3} only
    c = np.zeros((6, 6, 6))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    assert jacobi_worst_at(c)[0] == 0.0 == jacobi_loop(c)[0]
    c[2, 3, 4], c[3, 2, 4] = 0.25, -0.25
    assert jacobi_worst_at(c) == (0.25, (0, 1, 3)) == jacobi_loop(c)
    with pytest.raises(ValueError, match=r"residual 2\.500e-01 at basis triple \(0, 1, 3\)"):
        LieAlgebra(BasedSpace.make([f"e{i}" for i in range(6)]), c)
    # a NaN reaches every triple whose bracket reads it; the first with i < j is named
    c[2, 3, 5] = np.nan
    resid, triple = jacobi_worst_at(c)
    assert np.isnan(resid) and np.isnan(jacobi_loop(c)[0]) and triple == (0, 1, 3)


def test_from_realization_names_the_bad_commutator():
    def unit(i, j):
        m = np.zeros((2, 2), dtype=complex)
        m[i, j] = 1.0
        return m

    # [E11, E12] and [E11, E21] stay in the span, [E12, E21] = E11 - E22 leaves it
    with pytest.raises(ValueError, match=r"commutator \[e12, e21\] leaves the span"):
        from_realization(["e11", "e12", "e21"], [unit(0, 0), unit(0, 1), unit(1, 0)])


# -- the sparse Jacobiator ---------------------------------------------------------


def _perturbed(c: np.ndarray, a: int = 0, b: int = 1, eps: float = 1e-3) -> np.ndarray:
    """c with eps added to every coordinate of [e_a, e_b] (the
    `jacobi_perturb_constant` knob for a, b = 0, 1)."""
    c = c.copy()
    c[a, b] += eps
    c[b, a] -= eps
    return c


def _random_integer_lie_table(seed: int) -> np.ndarray:
    """A sparse integer Lie table: the direct sum of su(1,1), su(2,1) and a
    Heisenberg algebra, in a shuffled basis with random signs."""
    blocks = [su11().g.structure, get_entry("su21").g.structure]
    heis = np.zeros((3, 3, 3))
    heis[0, 1, 2], heis[1, 0, 2] = 2.0, -2.0
    blocks.append(heis)
    n = sum(len(b) for b in blocks)
    c = np.zeros((n, n, n))
    at = 0
    for b in blocks:
        k = len(b)
        c[at:at + k, at:at + k, at:at + k] = b
        at += k
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sign = rng.choice([-1.0, 1.0], n)
    # e'_i = sign_i e_perm(i): c'[i, j, l] = sign_i sign_j sign_l c[pi, pj, pl]
    return np.einsum("i,j,l,ijl->ijl", sign, sign, sign, c[np.ix_(perm, perm, perm)])


def _sparse_jacobi(c: np.ndarray) -> bool:
    """Whether `jacobi_worst_at` contracts c over its nonzero entries: the
    sparse contraction, under the path rule, gives the answer."""
    return _jacobi_sparse(c, rule=True) is not None


def _sparse_cocycle(c: np.ndarray, delta: np.ndarray) -> bool:
    """Whether `cocycle_1_worst_at` contracts e's table c and delta sparsely."""
    return _cocycle_sparse(c, delta, rule=True) is not None


def _assert_paths_agree(c: np.ndarray, loop: bool = True):
    """The sparse and dense paths, and the index loop, give the residual to
    a relative 1e-13 and the same witness."""
    sparse, dense = _jacobi_sparse(c), _jacobi_dense(c)
    assert sparse[0] == pytest.approx(dense[0], rel=1e-13)
    assert sparse[1] == dense[1]
    if loop:
        want, at = jacobi_loop(c)
        assert sparse[0] == pytest.approx(want, rel=1e-13)
        assert sparse[1] == at


@pytest.mark.parametrize("seed", range(5))
def test_sparse_jacobi_on_random_integer_tables(seed):
    c = _random_integer_lie_table(seed)
    n = len(c)
    assert _sparse_jacobi(c)
    assert jacobi_worst_at(c) == (0.0, (0, 1, 1)) == _jacobi_dense(c)
    assert jacobi_loop(c)[0] == 0.0
    rng = np.random.default_rng(100 + seed)
    a, b = sorted(rng.choice(n, 2, replace=False))
    bad = c.copy()
    bad[a, b, rng.integers(n)] += 0.37
    bad[b, a] = -bad[a, b]
    assert _sparse_jacobi(bad)
    assert jacobi_worst_at(bad)[0] > 0.1
    _assert_paths_agree(bad)
    _assert_paths_agree(_perturbed(c, a, b))


@pytest.mark.parametrize("name", ["su21", "su31", "su41"])
def test_sparse_jacobi_on_the_perturb_knob(name):
    c = _perturbed(get_entry(name).g.structure)
    assert jacobi_worst_at(c)[0] > 1e-3
    _assert_paths_agree(c)


def test_sparse_jacobi_on_the_perturbed_complexification():
    # the 96-dimensional g_C of supq1(6): too large for the index loop
    c = build_gc_algebra(supq1(6)).structure
    assert _sparse_jacobi(c) and jacobi_worst_at(c) == (0.0, (0, 1, 1))
    _assert_paths_agree(_perturbed(c), loop=False)


@pytest.mark.parametrize("name", ["su21", "su31", "su41"])
def test_sparse_co_jacobi(name):
    mp = get_entry(name).mp
    dual = np.moveaxis(mp.delta, 0, 2)
    assert _sparse_jacobi(dual)
    assert co_jacobi_worst_at(mp.delta) == (0.0, (0, 1, 1))
    assert _jacobi_dense(dual)[0] == 0.0 == co_jacobi_loop(mp.delta)
    # the dual bracket [e^0, e^1] moved off the cobracket of e
    bad = _perturbed(dual)
    got, triple = co_jacobi_worst_at(np.moveaxis(bad, 2, 0))
    assert got == pytest.approx(co_jacobi_loop(np.moveaxis(bad, 2, 0)), rel=1e-13)
    assert got > 1e-3 and triple == _jacobi_dense(bad)[1]
    _assert_paths_agree(bad)


def test_dusty_and_nan_tables_take_the_dense_path():
    entry = get_entry("su41")
    c = entry.g.structure
    assert _sparse_jacobi(c)
    # a least-squares table: su(2,1) in a random real basis
    g = get_entry("su21").g
    mix = np.random.default_rng(7).standard_normal((g.dim, g.dim))
    mats = list(np.tensordot(mix, np.array(g.realization), axes=1))
    dusty = from_realization([f"e{i}" for i in range(g.dim)], mats).structure
    assert not np.array_equal(dusty, np.rint(dusty))
    assert not _sparse_jacobi(dusty)
    # a table of exact integers but for a dust of rounding on every entry
    assert not _sparse_jacobi(c + 1e-17 * np.sign(np.swapaxes(c, 0, 1) + 0.5))
    bad = c.copy()
    bad[-1, -2, 0], bad[-2, -1, 0] = np.inf, -np.inf
    assert not _sparse_jacobi(bad)
    bad[-1, -2, 0], bad[-2, -1, 0] = np.nan, np.nan
    assert not _sparse_jacobi(bad)
    resid, triple = jacobi_worst_at(bad)
    assert np.isnan(resid) and triple == _jacobi_dense(bad)[1]


def _unimodular(n: int) -> tuple[np.ndarray, np.ndarray]:
    """An integer matrix of determinant 1 with every entry nonzero, the ones
    on and below the diagonal times their transpose, and its inverse, which
    is integer (tridiagonal) too."""
    t = np.tri(n) @ np.tri(n).T
    inv = np.rint(np.linalg.inv(t))
    assert np.array_equal(t @ inv, np.eye(n))
    return t, inv


def _in_integer_basis(c: np.ndarray) -> np.ndarray:
    """A table on the quarter grid in the `_unimodular` basis of its algebra,
    computed exactly: every product and partial sum is a whole number of
    quarters far below 2^53, so the new table is on the grid too."""
    t, inv = _unimodular(len(c))
    out = np.einsum("ai,bj,abr,sr->ijs", t, t, 4.0 * c, inv, optimize=True) / 4.0
    assert np.array_equal(out, -out.swapaxes(0, 1)) and np.array_equal(4 * out, np.rint(4 * out))
    return out


def _peak_bytes(fn, *args):
    """fn(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_a_dense_table_on_the_integer_grid_takes_the_dense_loop():
    # the path follows density, not exactness: su(4,1) in an integer basis is
    # exact and 94% nonzero, and its sparse contraction would form about
    # 3.5M products against n^3 = 13,824
    c = _in_integer_basis(get_entry("su41").g.structure)
    assert np.count_nonzero(c) > 0.9 * c.size
    assert not _sparse_jacobi(c)
    got, peak = _peak_bytes(jacobi_worst_at, c)
    assert got == (0.0, (0, 1, 1)) == _jacobi_dense(c)
    assert peak < 2e6
    # the two paths agree on a dense integer table small enough to join
    small = _in_integer_basis(get_entry("su21").g.structure)
    assert not _sparse_jacobi(small) and not _sparse_jacobi(_perturbed(small))
    _assert_paths_agree(_perturbed(small), loop=False)


def test_a_dense_integer_basis_pair_takes_the_dense_cocycle_loop():
    # b and c each mixed by a unimodular block: e and delta go dense (40% and
    # 29% nonzero), and the sparse contraction would form about 73 n^3 products
    mp = _mixed_pair(get_entry("su41").mp, lambda k: _unimodular(k)[0])
    c = mp.e_algebra.structure
    assert not _sparse_cocycle(c, mp.delta)
    (resid, pair), peak = _peak_bytes(cocycle_1_worst_at, mp, mp.delta)
    assert (resid, pair) == _cocycle_dense(c, mp.delta) and resid <= 1e-9
    assert peak < 2e6
    small = _mixed_pair(get_entry("su21").mp, lambda k: _unimodular(k)[0])
    bad = _flip_first_nonzero(small.delta)
    c = small.e_algebra.structure
    assert not _sparse_cocycle(c, bad)
    sparse, dense = _cocycle_sparse(c, bad), cocycle_1_worst_at(small, bad)
    assert sparse[0] == pytest.approx(dense[0], rel=1e-12) and sparse[1] == dense[1]


def test_the_path_rule_takes_at_most_n_cubed_products_of_finite_tables():
    # n = 2: each key meets a run of 4 entries, and n^3 = 8
    table, starts = np.ones((2, 2, 2)), np.array([0, 4, 8])
    assert takes_sparse_path((table,), (np.array([0, 1]), starts))
    assert not takes_sparse_path((table,), (np.array([0]), starts), (np.array([1, 1]), starts))
    assert not takes_sparse_path((table, np.full((2, 2, 2), np.nan)), (np.array([0]), starts))


def test_the_path_rule_counts_every_join_the_sparse_path_forms(monkeypatch):
    mp = get_entry("su21").mp
    mp.e_algebra        # built, and its table contracted, before the spies go in
    seen, met = [], []

    def rule(tables, *joins):
        seen.extend(joins)
        return True

    def meet(left, keys, starts):
        met.append((keys, starts))
        return meet_runs(left, keys, starts)

    for module in (lie, bialgebra):
        monkeypatch.setattr(module, "takes_sparse_path", rule)
        monkeypatch.setattr(module, "meet_runs", meet)
    jacobi_worst_at(mp.g.structure)
    cocycle_1_worst_at(mp, mp.delta)
    assert len(seen) == len(met) == 3
    for (keys, starts), (met_keys, met_starts) in zip(seen, met):
        assert np.array_equal(keys, met_keys) and np.array_equal(starts, met_starts)


def _contracted_tables(entry) -> dict[str, np.ndarray]:
    """The tables of an entry whose Jacobi identity a verify contracts through
    `jacobi_worst_at`; `test_model_table_and_twist_cobrackets_are_exact`
    covers the others, the deformations and the cobrackets on g*."""
    mp = entry.mp
    return {"g": entry.g.structure, "gstar": entry.gstar.structure,
            "gC": entry.gc_algebra.structure, "gprime": entry.gprime_algebra.structure,
            "e": mp.e_algebra.structure, "delta dual": np.moveaxis(mp.delta, 0, 2)}


@pytest.mark.parametrize("p", range(1, 7))
def test_every_catalog_table_is_sparse_and_dense_in_a_mixed_basis(p):
    entry = supq1(p)
    rng = np.random.default_rng(p)
    # each table is sparse, and dense in a random and in the integer basis,
    # but for the solvable 3-dimensional g* and dual of delta of su(1,1): in
    # the integer basis they form 0.9 n^3 products and stay sparse
    integer_sparse = {"gstar", "delta dual"} if p == 1 else set()
    for name, c in _contracted_tables(entry).items():
        assert _sparse_jacobi(c), name
        mixed = structure_in_basis(c, rng.standard_normal((len(c), len(c))))
        assert not _sparse_jacobi(mixed), name
        assert _sparse_jacobi(_in_integer_basis(c)) == (name in integer_sparse), name
    # the cocycle of su(1,1) mixes a line b and a plane c within themselves,
    # which leaves 0.89 n^3 products: it stays sparse
    mp = entry.mp
    assert _sparse_cocycle(mp.e_algebra.structure, mp.delta)
    for mix in (lambda k: rng.standard_normal((k, k)), lambda k: _unimodular(k)[0]):
        mixed = _mixed_pair(mp, mix)
        assert _sparse_cocycle(mixed.e_algebra.structure, mixed.delta) == (p == 1)


# -- the trace pairing as one GEMM -----------------------------------------------


def trace_gram_einsum(xs, ys, spec: str) -> np.ndarray:
    """The Gram matrix as the index contraction G[a, b] = sum_ij xs[a, i, j] ys[b, j, i]."""
    t = np.einsum("aij,bji->ab", np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex))
    return t.imag if spec == IM_TRACE else t.real


@pytest.mark.parametrize("spec", [IM_TRACE, RE_TRACE])
@pytest.mark.parametrize("d", [2, 3, 5, 9])
def test_trace_gram_matches_einsum_on_random_stacks(spec, d):
    rng = np.random.default_rng(d)
    xs = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
    ys = rng.standard_normal((3 * d, d, d)) + 1j * rng.standard_normal((3 * d, d, d))
    for a, b in ((xs, ys), (ys, xs)):
        got, want = trace_gram(a, b, spec), trace_gram_einsum(a, b, spec)
        assert got.shape == (len(a), len(b))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _catalog_pairings(entry):
    """The pairings of catalog matrices that the package forms: the g*-g
    pairing and the psi coordinates, each Manin half with itself, the Re-trace
    form on p x s behind phi, and the form-dual basis and the brackets of each
    cobracket on g*."""
    g, gs = entry.g, entry.gstar
    gc = build_gc_algebra(entry)
    out = [(gs.realization, g.realization, IM_TRACE), (entry.psi_mats, g.realization, IM_TRACE),
           (g.matrix_of(entry.cartan.parts["p"]), g.matrix_of(entry.mp.y_basis), RE_TRACE)]
    out += [(alg.realization, alg.realization, IM_TRACE) for alg in (g, gs, gc)]
    for half in (list(g.realization), gprime_half(entry), gc_compact_half(entry)):
        out.append((gs.realization, half, IM_TRACE))
        out.append((gs.realization, commutators(half, half).reshape(-1, *half[0].shape), IM_TRACE))
    return out


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_trace_gram_is_bit_identical_on_catalog_pairings(name):
    for xs, ys, spec in _catalog_pairings(get_entry(name)):
        assert np.array_equal(trace_gram(xs, ys, spec), trace_gram_einsum(xs, ys, spec))


# -- dyadic snap: exact model and cobracket tables --------------------------------


def test_snap_dyadic_keeps_an_off_grid_table_untouched():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 0.5, -0.5
    c[1, 2, 0], c[2, 1, 0] = -0.25 + 1e-12, 0.25 - 1e-12
    exact, dist = snap_dyadic(c)
    assert np.array_equal(exact, np.rint(4.0 * c) / 4.0) and dist == pytest.approx(1e-12)
    assert not np.any(np.signbit(exact) & (exact == 0.0))     # no negative zeros
    # one entry off the quarter grid: the table comes back as it is
    c[0, 2, 1], c[2, 0, 1] = 0.2, -0.2
    for bad in (c, np.where(c == 0.5, np.nan, c), np.where(c == 0.5, np.inf, c)):
        out, dist = snap_dyadic(bad)
        assert out is bad and dist == 0.0


def test_snap_dyadic_picks_the_coarsest_grid():
    rng = np.random.default_rng(5)
    for grid in (1, 2, 4):
        table = rng.integers(-9, 10, (4, 4, 4)) / grid
        exact, dist = snap_dyadic(table + 1e-11 * rng.standard_normal(table.shape))
        assert np.array_equal(exact, table) and 0.0 < dist <= 1e-10


def _on_grid(table: np.ndarray, grid: int) -> bool:
    return bool(np.array_equal(grid * table, np.rint(grid * table)))


@pytest.mark.parametrize("p", range(1, 9))
def test_model_table_and_twist_cobrackets_are_exact(p):
    # the deformations are cut from the model table snapped to the quarter
    # grid, the co-Jacobi runs on the cobrackets snapped to the integers; the
    # sparse contraction takes every one of them
    entry = supq1(p)
    k = entry.mp.dim_c
    model = g_structure_in_model_basis(entry)
    exact, dist = snap_dyadic(model)
    assert exact is not model and dist <= 1e-14
    assert _on_grid(exact, 4) and not _on_grid(exact, 1)
    assert np.max(np.abs(model[:k, :k, :k])) <= 1e-14      # [p, p] in k
    for sign in (1.0, -1.0, 0.0, 2.0):
        alg = deform_bracket(exact, k, sign)
        assert _on_grid(alg.structure, 4)
        assert alg.jacobi == (0.0, (0, 1, 1))
        assert _sparse_jacobi(alg.structure)
    for half in (list(entry.g.realization), gprime_half(entry), gc_compact_half(entry)):
        raw = cobracket_on_gstar(entry, half)
        cob, dist = snap_dyadic(raw)
        assert cob is not raw and dist <= 1e-14 and _on_grid(cob, 1)
        assert co_jacobi_worst_at(cob) == (0.0, (0, 1, 1))
        assert _sparse_jacobi(np.moveaxis(cob, 0, 2))


# -- the cocycle residual over nonzero products -----------------------------------


def cocycle_loop(c: np.ndarray, delta: np.ndarray) -> tuple[float, tuple[int, int]]:
    """max |delta([e_i, e_j]) - e_i.delta(e_j) + e_j.delta(e_i)| over i < j, one
    pair at a time, X.C = ad(X) C + C ad(X)^T with ad(e_i)[p, r] = c[i, r, p]:
    the first NaN, else the first largest, and its pair."""
    n = len(c)
    out, at = 0.0, (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = sum(c[i, j, l] * delta[l] for l in range(n))
            act = [c[x].T @ delta[y] + delta[y] @ c[x] for x, y in ((i, j), (j, i))]
            r = float(np.max(np.abs(lhs - act[0] + act[1])))
            if np.isnan(r):
                return r, (i, j)
            if r > out:
                out, at = r, (i, j)
    return out, at


def _flip_first_nonzero(delta: np.ndarray) -> np.ndarray:
    """The delta_sign_one_basis knob: the cobracket of the first basis vector
    where it is nonzero, with the opposite sign."""
    out = delta.copy()
    out[np.argmax(np.abs(delta).max(axis=(1, 2)) > 1e-9)] *= -1.0
    return out


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_sparse_cocycle_matches_the_dense_loop_on_the_catalog(name):
    mp = get_entry(name).mp
    c = mp.e_algebra.structure
    assert _sparse_cocycle(c, mp.delta)
    for delta, want in ((mp.delta, 0.0), (_flip_first_nonzero(mp.delta), 8.0)):
        sparse, dense = _cocycle_sparse(c, delta), _cocycle_dense(c, delta)
        assert sparse == dense == cocycle_1_worst_at(mp, delta)
        assert sparse[0] == want
        if name != "su41":
            assert sparse == cocycle_loop(c, delta)


def _mixed_pair(mp: MatchedPair, mix) -> MatchedPair:
    """The pair with the rows of b and of c each mixed by mix(dim)."""
    parts = {part: mix(len(rows)) @ rows for part, rows in mp.decomp.parts.items()}
    return MatchedPair(f"{mp.name}-mixed", mp.g, SubspaceDecomposition(mp.g, parts))


def _random_basis_pair(name: str, seed: int) -> MatchedPair:
    """The catalog pair with b and c each in a random basis."""
    rng = np.random.default_rng(seed)
    return _mixed_pair(get_entry(name).mp, lambda k: rng.standard_normal((k, k)))


@pytest.mark.parametrize("name", ["su21", "su31"])
def test_sparse_cocycle_matches_the_dense_loop_on_a_random_basis(name):
    mp = _random_basis_pair(name, 11)
    c = mp.e_algebra.structure
    assert not _sparse_cocycle(c, mp.delta)
    assert cocycle_1_worst_at(mp, mp.delta)[0] <= 1e-9
    bad = _flip_first_nonzero(mp.delta)
    dense = cocycle_1_worst_at(mp, bad)
    assert dense == _cocycle_dense(c, bad) and dense[0] > 1e-3
    sparse = _cocycle_sparse(c, bad)
    want = cocycle_loop(c, bad)
    for got in (sparse, dense):
        assert got[0] == pytest.approx(want[0], rel=1e-12) and got[1] == want[1]


def test_cocycle_of_a_nan_delta_is_nan_on_both_paths():
    mp = get_entry("su41").mp
    c = mp.e_algebra.structure
    bad = mp.delta.copy()
    bad[-1, 0, 1], bad[-1, 1, 0] = np.nan, np.nan
    assert not _sparse_cocycle(c, bad)
    assert np.isnan(cocycle_1_worst_at(mp, bad)[0])
    assert np.isnan(_cocycle_dense(c, bad)[0]) and np.isnan(_cocycle_sparse(c, bad)[0])
