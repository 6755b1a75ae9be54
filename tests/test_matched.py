import json

import numpy as np
import pytest

from poissonlie.catalog import catalog_names, get_entry, su11, supq1
from poissonlie.group import GroupElement, exp_b
from poissonlie.matched import MatchedPair
from references import (c_coords, change_of_basis, coad_matrix_coords, gstar_to_b0,
                        identity_element, inverse_element, sample_group_matrices)


def sample_group_element(mp, rng) -> GroupElement:
    """One random element, drawn as the first of a stack of one."""
    return GroupElement(mp, sample_group_matrices(mp, rng, 1)[0])


@pytest.fixture(scope="module")
def e11():
    return su11()


def test_invariance_under_sampled_group_elements(e11):
    rng = np.random.default_rng(42)
    worst = max(e11.mp.invariance_residual(sample_group_element(e11.mp, rng))
                for _ in range(100))
    assert worst <= 1e-9


@pytest.mark.parametrize("p", [2, 3])
def test_invariance_su_p1(p):
    entry = supq1(p)
    rng = np.random.default_rng(43)
    worst = max(entry.mp.invariance_residual(sample_group_element(entry.mp, rng))
                for _ in range(100))
    assert worst <= 1e-9


def test_canonical_tensor_basis_change_invariance(e11):
    # replace (y_i) by an invertible recombination; the tensor in a fixed
    # ambient frame Psi R^{-T} (R Y)^T = Psi Y^T is unchanged
    mp = e11.mp
    rng = np.random.default_rng(5)
    cb = change_of_basis(mp)
    ambient = cb.psi @ cb.y.T
    b = mp.decomp.parts["b"]
    for _ in range(10):
        r = rng.uniform(-1, 1, (2, 2)) + np.eye(2) * 2.0
        y_new = (cb.y @ r.T).T
        from poissonlie.lie import SubspaceDecomposition

        pair = MatchedPair("recombined", mp.g, SubspaceDecomposition(mp.g, {"b": b, "c": y_new}))
        psi_new = pair.psi_basis
        assert np.max(np.abs(psi_new @ y_new.T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(psi_new @ b.T)) <= 1e-12
        ambient_new = psi_new.T @ y_new
        assert np.max(np.abs(ambient_new - ambient)) <= 1e-9


def test_action_on_c_identity(e11):
    a = identity_element(e11.mp)
    assert np.allclose(a.action_on_c, np.eye(2), atol=1e-12)


def test_action_on_c_homomorphism(e11):
    rng = np.random.default_rng(17)
    mp = e11.mp
    worst = 0.0
    for _ in range(100):
        a = sample_group_element(mp, rng)
        b = sample_group_element(mp, rng)
        diff = (a @ b).action_on_c - a.action_on_c @ b.action_on_c
        worst = max(worst, np.max(np.abs(diff)))
    assert worst <= 1e-9


def test_duality_at_quarter_turn(e11):
    # <P_c Ad_a y, phi> = <y, Ad*_{a^{-1}} phi> at a = diag(e^{i pi/4}, e^{-i pi/4})
    mp = e11.mp
    a = exp_b(mp, np.array([np.pi / 4]), 1.0)
    c_mat = a.action_on_c
    k_inv = inverse_element(a).coad_b0
    assert np.max(np.abs(c_mat - k_inv.T)) <= 1e-12


def test_anchor_values_planar(e11):
    mp = e11.mp
    ya, y2 = np.eye(2)        # y-basis coordinates
    # sin(2 phi) at phi = pi/4 -> 1
    assert np.allclose(mp.anchor(ya, exp_b(mp, np.array([np.pi / 4]), 1.0)), [1.0], atol=1e-12)
    # (1 - cos 2 phi) at phi = pi/2 -> 2
    assert np.allclose(mp.anchor(y2, exp_b(mp, np.array([np.pi / 2]), 1.0)), [2.0], atol=1e-12)


def test_anchor_identity_and_linearity(e11):
    mp = e11.mp
    e = identity_element(mp)
    for y in np.eye(2):
        assert np.max(np.abs(mp.anchor(y, e))) <= 1e-12
    rng = np.random.default_rng(3)
    a = sample_group_element(mp, rng)
    y1, y2 = np.eye(2)
    lhs = mp.anchor(2.0 * y1 - 3.0 * y2, a)
    rhs = 2.0 * mp.anchor(y1, a) - 3.0 * mp.anchor(y2, a)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_anchor_rejects_non_c_vector(e11):
    # the anchor takes y-basis coordinates: a g-coordinate vector is refused
    with pytest.raises(ValueError, match="y-basis coordinates"):
        e11.mp.anchor(np.eye(3)[0], identity_element(e11.mp))


def test_matched_pair_rejects_non_subalgebra_parts(e11):
    g = e11.g
    from poissonlie.lie import SubspaceDecomposition

    # span{y_a} alone is a subalgebra but span{ih, y_a} is not complementary
    # to a subalgebra span{y2}: [ih, y2] = 2 ya leaves the part
    rows_b = np.vstack([np.eye(3)[0], np.eye(3)[1]])
    rows_c = np.eye(3)[2:]
    decomp = SubspaceDecomposition(g, {"b": rows_b, "c": rows_c})
    with pytest.raises(ValueError):
        MatchedPair("bad", g, decomp)


def test_json_import_round_trip(e11):
    doc = e11.mp.to_json_dict()
    mp2 = MatchedPair.from_json(json.dumps(doc))
    assert np.array_equal(mp2.y_basis, e11.mp.y_basis)
    assert np.allclose(mp2.psi_basis, e11.mp.psi_basis, atol=1e-12)
    rng = np.random.default_rng(4)
    worst = max(mp2.invariance_residual(sample_group_element(mp2, rng))
                for _ in range(20))
    assert worst <= 1e-9


def test_json_import_with_index_lists(e11):
    doc = {"algebra": e11.g.to_json_dict(), "b": [0], "c": [1, 2]}
    mp2 = MatchedPair.from_json_dict(doc)
    assert mp2.dim_b == 1 and mp2.dim_c == 2


def _semidirect_reference(mp) -> np.ndarray:
    """e = b0 x| b one basis pair at a time: [x_j, psi^i] = ad*(x_j) psi^i and
    [x_a, x_b] from b."""
    k, m = mp.dim_c, mp.dim_b
    cb = change_of_basis(mp)
    c = np.zeros((k + m,) * 3)
    for j in range(m):
        coad = coad_matrix_coords(mp.g, cb.b[:, j])
        for i in range(k):
            s = gstar_to_b0(mp, coad @ cb.psi[:, i])
            c[k + j, i, :k] = s
            c[i, k + j, :k] = -s
    for a in range(m):
        for b in range(a + 1, m):
            br = mp.b_coords(mp.g.bracket_coords(cb.b[:, a], cb.b[:, b]))
            c[k + a, k + b, k:] = br
            c[k + b, k + a, k:] = -br
    return c


def _delta_reference(mp) -> np.ndarray:
    """delta[x, p, q] one basis pair at a time: the psi^i ^ psi^j coefficient
    of delta(psi) is <psi, [y_i, y_j]>, and delta(x_j) = sum_i P_b [y_i, x_j] ^ psi^i."""
    k, m = mp.dim_c, mp.dim_b
    b = change_of_basis(mp).b
    delta = np.zeros((k + m,) * 3)
    for i in range(k):
        for j in range(k):
            delta[:k, i, j] = c_coords(mp, mp.g.bracket_coords(mp.y_basis[i], mp.y_basis[j]))
        for j in range(m):
            t = mp.b_coords(mp.g.bracket_coords(mp.y_basis[i], b[:, j]))
            delta[k + j, k:, i] = t
            delta[k + j, i, k:] = -t
    return delta


def test_mixed_adapted_basis_su21():
    # every catalog pair has unit-vector b and c rows; here each part's rows
    # are mixed by a random invertible matrix, so the change of basis is general
    from poissonlie.checks import applicable_checks, run_check
    from poissonlie.config import DEFAULT_TOL

    mp = supq1(2).mp
    rng = np.random.default_rng(21)
    doc = mp.to_json_dict()
    for part, dim in (("b", mp.dim_b), ("c", mp.dim_c)):
        mix = rng.uniform(-1, 1, (dim, dim)) + 2.0 * np.eye(dim)
        doc[part] = (mix @ np.array(doc[part])).tolist()
    mixed = MatchedPair.from_json(json.dumps(doc))
    assert mixed.b0_space.labels[0] == "psi_0"       # rows are not unit vectors

    names = applicable_checks(mixed)
    assert names == ["jacobi", "invariance", "cocycle", "delta_consistency",
                     "bialgebra_axioms"]
    for name in names:
        assert run_check(name, mixed, 200, 42, DEFAULT_TOL)["pass"] is True, name
    for knob, name in (("delta_b0_sign", "delta_consistency"),
                       ("delta_sign_one_basis", "bialgebra_axioms")):
        assert run_check(name, mixed, 0, 42, DEFAULT_TOL, corrupt=knob)["pass"] is False

    assert np.max(np.abs(mixed.e_algebra.structure - _semidirect_reference(mixed))) <= 1e-13
    assert np.max(np.abs(mixed.delta - _delta_reference(mixed))) <= 1e-13


def test_user_pair_sl2r_full_machinery():
    # a pair that is not in the catalog: sl(2,R) split into the rotation
    # generator and the upper-triangular part, imported through JSON
    from poissonlie.bialgebra import (co_jacobi_worst_at, cocycle_1_worst_at,
                                      delta_consistency_worst_at)
    from poissonlie.linalg import worst
    from poissonlie.lie import from_realization
    from poissonlie.checks import run_check
    from poissonlie.config import DEFAULT_TOL

    j = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    g = from_realization(["J", "H", "N"], [j, h, n])
    doc = {"name": "sl2r", "algebra": g.to_json_dict(), "b": [0], "c": [1, 2]}
    mp = MatchedPair.from_json_dict(doc)
    assert run_check("cocycle", mp, 300, 42, DEFAULT_TOL)["max_residual"] <= 1e-9
    assert delta_consistency_worst_at(mp, mp.delta)[0] <= 1e-6
    assert worst(co_jacobi_worst_at(mp.delta)[0], cocycle_1_worst_at(mp, mp.delta)[0]) <= 1e-9


def integer_basis_pair(name: str) -> MatchedPair:
    """The catalog pair rewritten in the integer basis T = L L^T of g, L the
    lower triangle of ones, with b and c each mixed within themselves by a
    block of the same kind: every table stays exact, but the adapted table
    comes out of the change of basis off its grid by rounding."""
    def unimodular(n):
        t = np.tri(n) @ np.tri(n).T
        return t, np.rint(np.linalg.inv(t))

    doc = get_entry(name).mp.to_json_dict()
    alg = doc["algebra"]
    t, inv = unimodular(len(alg["structure"]))
    alg["structure"] = np.einsum("ai,bj,abr,sr->ijs", t, t, np.array(alg["structure"]),
                                 inv).tolist()
    mats = np.array([np.array(m["re"]) + 1j * np.array(m["im"]) for m in alg["realization"]])
    alg["realization"] = [{"re": m.real.tolist(), "im": m.imag.tolist()}
                          for m in np.tensordot(t.T, mats, axes=1)]
    for part in ("b", "c"):
        rows = np.array(doc[part]) @ inv.T
        doc[part] = (unimodular(len(rows))[0] @ rows).tolist()
    return MatchedPair.from_json_dict(doc)


def test_an_adapted_table_off_its_grid_by_rounding_is_snapped():
    from poissonlie.checks import run_check
    from poissonlie.config import ALGEBRAIC_TOL, DEFAULT_TOL

    for name in catalog_names():
        assert get_entry(name).mp.adapted_snap == 0.0
    mp = integer_basis_pair("su41")
    assert 0.0 < mp.adapted_snap <= ALGEBRAIC_TOL
    assert np.array_equal(4.0 * mp.adapted, np.rint(4.0 * mp.adapted))
    # e, a block of the snapped table, is exact, so it passes its Jacobi test
    assert mp.e_algebra.jacobi[0] == 0.0
    # the residuals that read e and delta carry the snap distance
    rep = run_check("bialgebra_axioms", mp, 0, 42, DEFAULT_TOL)
    assert rep["pass"] is True
    assert rep["details"]["co_jacobi_residual"] == mp.adapted_snap
    assert rep["details"]["cocycle_residual"] == mp.adapted_snap
