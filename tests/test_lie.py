import json

import numpy as np
import pytest

from poissonlie.catalog import su11, supq1
from poissonlie.lie import (IM_TRACE, LieAlgebra, SubspaceDecomposition, pair_commutators,
                            from_realization, jacobi_worst_at, structure_in_basis)
from poissonlie.linalg import BasedSpace, worst
from poissonlie.matched import MatchedPair
from references import coad_matrix_coords


def trace_pairing(x: np.ndarray, y: np.ndarray, spec: str) -> float:
    """Invariant pairing of two complex matrices: Im tr(xy), else Re tr(xy)."""
    t = np.trace(x @ y)
    return float(t.imag if spec == IM_TRACE else t.real)


def projector_residual(d: SubspaceDecomposition) -> float:
    """Max deviation from P_i P_j = delta_ij P_i and sum P = 1."""
    p = d.projections
    out = np.max(np.abs(sum(p.values()) - np.eye(d.parent.dim)))
    for a in p:
        for b in p:
            out = worst(out, np.max(np.abs(p[a] @ p[b] - (p[a] if a == b else 0.0))))
    return out


@pytest.fixture(scope="module")
def e11():
    return su11()


def test_su11_bracket_table(e11):
    g = e11.g
    ih, ya, y2 = np.eye(3)
    # [y_a, y_2] = 2 y_2 per the published solvable table
    assert np.allclose(g.bracket_coords(ya, y2), [0, 0, 2], atol=1e-12)
    # ad(ih) y_a expands as 2 ih - 2 y2
    assert np.allclose(g.bracket_coords(ih, ya), [2, 0, -2], atol=1e-12)


def test_bracket_of_vector_with_itself(e11):
    g = e11.g
    x = np.array([0.3, -1.2, 0.7])
    assert np.max(np.abs(g.bracket_coords(x, x))) < 1e-12


def test_su21_rij_bracket():
    g = supq1(2).g
    labels = g.space.labels
    i_r = labels.index("yR_1")
    i_i = labels.index("yI_1")
    i_2 = labels.index("y2")
    br = g.bracket_coords(np.eye(g.dim)[i_r], np.eye(g.dim)[i_i])
    expect = 2.0 * np.eye(g.dim)[i_2]
    assert np.max(np.abs(br - expect)) < 1e-12


def test_ad_matrix_zero_and_duality(e11):
    g = e11.g
    assert np.array_equal(g.ad_matrix_coords(np.zeros(3)), np.zeros((3, 3)))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        phi = rng.uniform(-1, 1, 3)
        y = rng.uniform(-1, 1, 3)
        lhs = (coad_matrix_coords(g, x) @ phi) @ y
        rhs = phi @ (g.ad_matrix_coords(x) @ y)
        assert abs(lhs + rhs) < 1e-12


def test_coad_is_minus_ad_transpose(e11):
    # the coadjoint matrix against its definition <ad*(x) phi, y> = phi([y, x]),
    # read off the bracket alone: column i of the matrix is ad*(x) e^i
    g = e11.g
    x = np.array([0.2, 1.0, -0.5])
    basis = np.eye(g.dim)
    defined = np.array([[phi @ g.bracket_coords(y, x) for phi in basis] for y in basis])
    assert np.max(np.abs(coad_matrix_coords(g, x) - defined)) <= 1e-12


def test_ad_ih_on_ya_derived_expansion(e11):
    # brute-force 2x2 commutator, re-expanded through the 3x3 linear system
    g = e11.g
    comm = g.realization[0] @ g.realization[1] - g.realization[1] @ g.realization[0]
    coords = g.coords_of(comm)
    assert np.allclose(coords, [2, 0, -2], atol=1e-12)


def test_check_jacobi_catalog_and_abelian(e11):
    assert jacobi_worst_at(e11.g.structure)[0] <= 1e-9
    abelian = LieAlgebra(BasedSpace.make(["a", "b"]), np.zeros((2, 2, 2)))
    assert jacobi_worst_at(abelian.structure)[0] == 0.0


def test_jacobi_negative_control(e11):
    c = e11.g.structure.copy()
    c[0, 1, :] += 1e-3
    c[1, 0, :] -= 1e-3
    assert jacobi_worst_at(c)[0] > 1e-3


def test_constructor_rejects_non_antisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # partner entry missing
    with pytest.raises(ValueError):
        LieAlgebra(BasedSpace.make(["a", "b"]), c)


def test_constructor_rejects_jacobi_violation():
    c = np.zeros((3, 3, 3))
    # [e1,e2] = e1 and [e1,e3] = e2 leave the Jacobi sum equal to e2
    c[0, 1, 0], c[1, 0, 0] = 1, -1
    c[0, 2, 1], c[2, 0, 1] = 1, -1
    with pytest.raises(ValueError):
        LieAlgebra(BasedSpace.make(["a", "b", "c"]), c)


def test_realization_consistency_validated(e11):
    assert e11.g.realization_residual() <= 1e-9


def test_realization_mismatch_rejected(e11):
    mats = list(e11.g.realization)
    mats[2] = 2.0 * mats[2]
    with pytest.raises(ValueError):
        LieAlgebra(e11.g.space, e11.g.structure, realization=mats)


def test_dual_basis_su11(e11):
    g, mp = e11.g, e11.mp
    b = mp.decomp.parts["b"]
    y = mp.y_basis
    assert np.array_equal(b, np.eye(3)[:1]) and np.array_equal(y, np.eye(3)[1:])
    psi = mp.psi_basis
    assert np.allclose(psi @ y.T, np.eye(2), atol=1e-12)
    assert np.allclose(psi @ b.T, 0.0, atol=1e-12)
    # the pairing equations psi . b = 0, psi . y_j = delta_ij, solved directly
    rhs = np.vstack([np.zeros((1, 2)), np.eye(2)])
    assert np.allclose(psi, np.linalg.solve(np.vstack([b, y]), rhs).T, atol=1e-15)
    # matrix representatives displayed for the planar pair
    psi_a, psi_2 = e11.psi_mats
    assert np.array_equal(psi_a, np.array([[0, 1j], [0, 0]]))
    assert np.array_equal(psi_2, np.array([[0, 1.0], [0, 0]]))
    for i, mat in enumerate((psi_a, psi_2)):
        coords = [trace_pairing(mat, m, IM_TRACE) for m in g.realization]
        assert np.allclose(coords, psi[i], atol=1e-12)


def test_dual_basis_singular_pairing_rejected(e11):
    g = e11.g
    b = np.eye(3)[:1]
    with pytest.raises(ValueError, match="not independent"):
        # duplicating a row makes the pairing singular
        SubspaceDecomposition(g, {"b": b, "c": np.vstack([np.eye(3)[1], np.eye(3)[1]])})
    # nearly dependent parts (condition number 2e10) pass the decomposition's
    # own gate, 1e12, and fail the pair's, 1/ALGEBRAIC_TOL = 1e9
    decomp = SubspaceDecomposition(g, {"b": b, "c": [[0, 1, 0], [0, 1, 1e-10]]})
    assert 1e10 < decomp.condition_number < 1e12
    with pytest.raises(ValueError, match="singular pairing matrix"):
        MatchedPair("near", g, decomp)


def test_invariant_pairing_im_trace(e11):
    g = e11.g
    val = trace_pairing(np.array([[0, 1j], [0, 0]]), g.realization[1], IM_TRACE)
    assert val == pytest.approx(1.0, abs=1e-14)
    # symmetry of the trace pairing
    x = g.matrix_of(np.array([0.1, -0.4, 2.0]))
    y = g.matrix_of(np.array([1.0, 0.2, -0.3]))
    assert trace_pairing(x, y, IM_TRACE) == pytest.approx(trace_pairing(y, x, IM_TRACE),
                                                          abs=1e-12)


def test_invariance_of_trace_form_sl():
    # <[z,x],y> + <x,[z,y]> = 0 for sampled elements of sl(p+1, C)
    from poissonlie.manin import build_gc_algebra

    gc = build_gc_algebra(su11())
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1, 1, gc.dim)
        y = rng.uniform(-1, 1, gc.dim)
        z = rng.uniform(-1, 1, gc.dim)
        zx = gc.bracket_coords(z, x)
        zy = gc.bracket_coords(z, y)
        val = (trace_pairing(gc.matrix_of(zx), gc.matrix_of(y), IM_TRACE)
               + trace_pairing(gc.matrix_of(x), gc.matrix_of(zy), IM_TRACE))
        assert abs(val) < 1e-12


def test_subspace_decomposition_projectors(e11):
    d = e11.mp.decomp
    assert projector_residual(d) <= 1e-9
    # both parts are subalgebras: the off-blocks of the adapted table vanish
    m = len(d.parts["b"])
    a = structure_in_basis(e11.g.structure, np.vstack([d.parts["b"], d.parts["c"]]).T)
    assert np.max(np.abs(a[:m, :m, m:])) <= 1e-9
    assert np.max(np.abs(a[m:, m:, :m])) <= 1e-9
    assert np.isfinite(d.condition_number)


def test_structure_in_basis_expands_brackets_of_the_columns():
    g = supq1(2).g
    t = np.random.default_rng(8).uniform(-1, 1, (g.dim, g.dim)) + 3.0 * np.eye(g.dim)
    a = structure_in_basis(g.structure, t)
    assert np.array_equal(a, -a.swapaxes(0, 1))
    for i, j in ((0, 1), (2, 5), (7, 3)):
        assert np.max(np.abs(t @ a[i, j] - g.bracket_coords(t[:, i], t[:, j]))) <= 1e-12
    assert np.array_equal(structure_in_basis(g.structure, np.eye(g.dim)), g.structure)


def test_subspace_decomposition_rejects_dependent_parts(e11):
    g = e11.g
    with pytest.raises(ValueError):
        SubspaceDecomposition(g, {"b": np.eye(3)[:1], "c": np.vstack([np.eye(3)[0], np.eye(3)[2]])})


def test_json_round_trip(e11):
    g = e11.g
    doc = json.loads(json.dumps(g.to_json_dict()))
    g2 = LieAlgebra.from_json_dict(doc)
    assert g2.space == g.space
    assert np.array_equal(g2.structure, g.structure)
    assert g2.pairing == IM_TRACE
    for m1, m2 in zip(g.realization, g2.realization):
        assert np.array_equal(m1, m2)


def test_from_realization_rejects_non_closed():
    mats = [np.array([[0, 1.0], [0, 0]]), np.array([[0, 0], [1.0, 0]])]
    with pytest.raises(ValueError):
        from_realization(["e", "f"], mats)


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41"])
def test_solver_operator_is_the_triangular_solve(name):
    """The LU solve of R X = Q^T equals scipy's triangular back-substitution
    bit for bit, and the operator keeps the Fortran order that solve returns."""
    import scipy.linalg

    from poissonlie.catalog import get_entry
    from poissonlie.manin import build_gc_algebra

    entry = get_entry(name)
    for alg in (entry.g, build_gc_algebra(entry), entry.gstar):
        solver = alg._solver
        q, r = np.linalg.qr(solver._basis)
        assert solver._pinv.flags.f_contiguous
        assert np.array_equal(solver._pinv, scipy.linalg.solve_triangular(r, q.T))


def test_table_is_read_only_and_keeps_its_jacobi():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    alg = LieAlgebra(BasedSpace.make(["a", "b", "c"]), c)
    assert alg.jacobi == jacobi_worst_at(alg.structure) == (0.0, (0, 1, 1))
    with pytest.raises(ValueError, match="read-only"):
        alg.structure[0, 1, 2] = 5.0
    # the caller's array is copied, not frozen: changing it leaves the algebra as it was
    c[0, 1, 2] = 5.0
    assert alg.structure[0, 1, 2] == 1.0


def test_integer_realization_is_snapped_and_others_are_kept():
    g = supq1(2).g
    assert np.array_equal(g.structure, np.rint(g.structure))
    assert np.all(g.structure[np.signbit(g.structure)] < 0)     # no negative zeros
    # the unsnapped re-expansion differs from the snapped table by rounding only
    i, j, comms = pair_commutators(g.realization)
    coords, span = g._solver.solve_many(comms)
    assert 0.0 < np.max(np.abs(coords - g.structure[i, j])) <= g.realization_residual() <= 1e-9
    # halving the basis halves the constants: they are snapped to the half grid
    half = from_realization(list(g.space.labels), [0.5 * m for m in g.realization])
    assert np.array_equal(half.structure, 0.5 * g.structure)
    assert np.all(half.structure[np.signbit(half.structure)] < 0)
    assert 0.0 < half.realization_residual() <= 1e-9
    # a basis with constants off the quarter grid keeps its least-squares table, bit for bit
    mats = [m / 3.0 for m in g.realization]
    third = from_realization(list(g.space.labels), mats)
    coords, _ = third._solver.solve_each(third._solver.rows_of(pair_commutators(mats)[2]))
    assert np.array_equal(third.structure[i, j], coords)
    assert not np.array_equal(third.structure, np.rint(4.0 * third.structure) / 4.0)
