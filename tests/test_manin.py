import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from poissonlie import manin
from poissonlie.bialgebra import co_jacobi_worst_at
from poissonlie.catalog import get_entry, su11, supq1
from poissonlie.checks import run_check
from poissonlie.config import DEFAULT_TOL
from poissonlie.lie import (IM_TRACE, MatrixBasisSolver, SubspaceDecomposition, jacobi_worst_at,
                            trace_gram)
from poissonlie.linalg import best_sign, worst
from poissonlie.manin import (build_gc_algebra, check_manin, cobracket_on_gstar,
                              compact_algebra, cprime_residual, deform_bracket,
                              g_structure_in_model_basis,
                              gprime_algebra, gprime_block_residual,
                              gstar_k0_abelian_residual,
                              killing_eigenvalues, phi_identification, sigma_conj,
                              twist_element)
from references import (change_of_basis, coad_matrix_coords, commutators, form_invariance_dense,
                        gc_from_realization, gstar_to_b0, twist_check_of)


@pytest.fixture(scope="module")
def entries():
    return {1: su11(), 2: supq1(2)}


def test_gstar_dimension(entries):
    for p, entry in entries.items():
        assert entry.gstar.dim == (p + 1) ** 2 - 1 == entry.g.dim


def test_gstar_k0_block_abelian(entries):
    for entry in entries.values():
        assert gstar_k0_abelian_residual(entry) == 0.0
        # the table's reading against the matrices: their commutators vanish
        k0 = [entry.gstar.realization[i] for i in entry.gstar_k0_indices]
        assert not np.any(commutators(k0, k0))


def test_gstar_closure(entries):
    # closure is enforced by construction; re-check the residual explicitly
    for entry in entries.values():
        assert entry.gstar.realization_residual <= 1e-9


def test_manin_triples_pass(entries):
    for entry in entries.values():
        halves = {"g": entry.g, "gprime": gprime_algebra(entry), "gc": compact_algebra(entry)}
        rep = check_manin(build_gc_algebra(entry), entry.gstar, halves)
        assert set(rep["residuals"]) == {"form_invariance"} | {
            f"{part}_{name}" for part in ("isotropy", "closure")
            for name in ("g", "gprime", "gc", "gstar")}
        assert worst(*rep["residuals"].values()) <= 1e-9, (entry.p, rep)
        assert rep["conditions"] == {"complementary_g": True, "complementary_gprime": True,
                                     "complementary_gc": True}, (entry.p, rep)


def test_manin_negative_control(entries):
    # the knob adds the imaginary traceless diagonal to gstar
    rep = run_check("manin", entries[1], 0, 0, DEFAULT_TOL, corrupt="gstar_complex_diagonal")
    details = rep["details"]
    assert details["isotropy_gstar"] > 1e-3
    assert details["complementary_g"] is False and details["complementary_gprime"] is False
    assert rep["pass"] is False


@pytest.fixture(scope="module", params=["su11", "su21", "su31", "su41", "supq1(5)"])
def gc_table_and_form(request):
    """The table of g_C and the Gram matrix of its form."""
    name = request.param
    gc = (supq1(5) if name == "supq1(5)" else get_entry(name)).gc_algebra
    assert gc.pairing == IM_TRACE
    return gc.structure, trace_gram(gc.realization, gc.realization, gc.pairing)


def test_sparse_form_invariance_equals_the_dense_contraction(gc_table_and_form):
    table, gram = gc_table_and_form
    assert manin.form_invariance(table, gram) == form_invariance_dense(table, gram) == 0.0
    # one bracket perturbed, antisymmetrically: the same nonzero value
    bad = table.copy()
    bad[0, 1, :] += 1e-3
    bad[1, 0, :] -= 1e-3
    found = manin.form_invariance(bad, gram)
    assert found > 1e-4 and found == form_invariance_dense(bad, gram)
    # a NaN in the table or in the form gives NaN
    nan_table = table.copy()
    nan_table[2, 0, 1] = np.nan
    nan_gram = gram.copy()
    nan_gram[-1, 0] = np.nan
    for t, g in ((nan_table, gram), (table, nan_gram)):
        assert np.isnan(manin.form_invariance(t, g))
        assert np.isnan(form_invariance_dense(t, g))


def test_sigma_is_conjugate_linear_involution(entries):
    entry = entries[2]
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(sigma_conj(sigma_conj(m)), m)
        # real-linear automorphism: sigma[x, y] = [sigma x, sigma y]
        lhs = sigma_conj(m @ m2 - m2 @ m)
        s1, s2 = sigma_conj(m), sigma_conj(m2)
        assert np.allclose(lhs, s1 @ s2 - s2 @ s1)
        # conjugate-linear: sigma(i m) = -i sigma(m)
        assert np.allclose(sigma_conj(1j * m), -1j * sigma_conj(m))


def test_sigma_fixes_k_and_flips_p(entries):
    entry = entries[2]
    for i in range(entry.mp.dim_b):
        m = entry.g.realization[i]
        assert np.allclose(sigma_conj(m), m)
    for row in entry.cartan.parts["p"]:
        m = entry.g.matrix_of(row)
        assert np.allclose(sigma_conj(m), -m)


def test_gprime_lower_corner(entries):
    entry = entries[2]
    for psi in entry.psi_mats:
        img = sigma_conj(psi)
        assert np.max(np.abs(np.triu(img))) == 0.0   # strictly lower corner


def test_gprime_transport_and_block(entries):
    for entry in entries.values():
        gprime = gprime_algebra(entry)
        sign, resid = best_sign(gprime.structure, entry.mp.e_algebra.structure)
        assert resid <= 1e-9
        assert sign == 1.0
        k = entry.mp.dim_c
        assert gprime_block_residual(gprime, k) <= 1e-12
        # the same closure by re-expanding [k, sigma(k0)] in sigma(k0) alone
        lower = gprime.realization[:k]
        comms = commutators(entry.g.realization[:entry.mp.dim_b], lower)
        assert MatrixBasisSolver(lower).solve_many(comms.reshape(-1, *comms.shape[2:]))[1] \
            <= 1e-12


def test_phi_identification_equivariance(entries):
    # [x, phi(psi)] = phi(ad*(x) psi) for x in k
    for entry in entries.values():
        mp = entry.mp
        g = entry.g
        phi = phi_identification(entry)
        u_rows = (entry.cartan.parts["p"].T @ phi).T
        cb = change_of_basis(mp)
        for a in range(mp.dim_b):
            x = cb.b[:, a]
            coad = coad_matrix_coords(g, x)
            for i in range(mp.dim_c):
                lhs = g.bracket_coords(x, u_rows[i])
                psi_img = gstar_to_b0(mp, coad @ cb.psi[:, i])
                rhs = (u_rows.T @ psi_img)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_deform_plus_reproduces_g(entries):
    for entry in entries.values():
        model = g_structure_in_model_basis(entry)
        k = entry.mp.dim_c
        plus = deform_bracket(model, k, +1.0)
        assert np.max(np.abs(model[:k, :k, :k])) <= 1e-9     # [p, p] in k
        assert np.max(np.abs(plus.structure - model)) <= 1e-9


def test_deform_minus_killing_negative_definite(entries):
    for entry in entries.values():
        minus = deform_bracket(g_structure_in_model_basis(entry), entry.mp.dim_c, -1.0)
        assert np.max(killing_eigenvalues(minus)) < 0


def test_deform_zero_is_e(entries):
    for entry in entries.values():
        zero = deform_bracket(g_structure_in_model_basis(entry), entry.mp.dim_c, 0.0)
        assert np.max(np.abs(zero.structure - entry.mp.e_algebra.structure)) <= 1e-9


def test_deform_nan_p_part_fails_the_check(monkeypatch):
    # poison the p-part of [u_0, u_1], the block the model table leaves out:
    # the algebras still build, and the residual carries the NaN to the verdict;
    # a fresh entry, since an entry builds its model table once
    entry = supq1(2)
    model = manin.g_structure_in_model_basis

    def poisoned(e):
        out = model(e).copy()
        out[0, 1, 0] = out[1, 0, 0] = np.nan      # u_0-component of [u_0, u_1]
        return out

    monkeypatch.setattr(manin, "g_structure_in_model_basis", poisoned)
    assert not np.isnan(deform_bracket(poisoned(entry), entry.mp.dim_c, +1.0).structure).any()
    rep = run_check("deform", entry, 0, 0, DEFAULT_TOL)
    assert np.isnan(rep["details"]["pp_in_k"]) and np.isnan(rep["max_residual"])
    assert rep["worst_criterion"] == "pp_in_k"
    assert rep["pass"] is False


def test_deform_corrupted_cocycle_mismatch(entries):
    entry = entries[1]
    model = g_structure_in_model_basis(entry)
    bad = deform_bracket(model, entry.mp.dim_c, 2.0)
    assert np.max(np.abs(bad.structure - model)) > 1e-3


def test_gc_algebra_dimension(entries):
    gc = build_gc_algebra(entries[2])
    assert gc.dim == 2 * entries[2].g.dim


@pytest.mark.parametrize("name", ["su11", "su21", "su31", "su41", "supq1(5)", "supq1(6)"])
def test_gc_table_is_the_re_expansion_of_its_matrices(name):
    # the closed form from g's table against the re-expansion of all 2n(2n-1)/2
    # commutators, bit for bit, zeros' signs included
    entry = supq1(int(name[6])) if name.startswith("supq1") else get_entry(name)
    gc, (labels, mats, ref) = build_gc_algebra(entry), gc_from_realization(entry)
    assert np.array_equal(gc.structure, ref)
    assert np.array_equal(np.signbit(gc.structure), np.signbit(ref))
    assert gc.labels == tuple(labels) and gc.pairing == IM_TRACE
    assert all(np.array_equal(m, r) for m, r in zip(gc.realization, mats, strict=True))
    assert gc.realization_residual <= 1e-9
    # the Jacobi result handed over from g is the table's own
    assert jacobi_worst_at(gc.structure) == gc.jacobi == entry.g.jacobi


def test_gc_build_raises_on_a_g_table_off_its_matrices():
    # a stand-in entry whose g table has one sign flipped, in both of its
    # antisymmetric places: g_C's table no longer matches its matrices
    g = get_entry("su21").g
    a, b, m = next(tuple(map(int, at)) for at in np.argwhere(g.structure) if at[0] < at[1])
    table = g.structure.copy()
    table[a, b, m], table[b, a, m] = -table[a, b, m], -table[b, a, m]
    stand_in = SimpleNamespace(g=SimpleNamespace(dim=g.dim, structure=table, jacobi=g.jacobi,
                                                 realization=g.realization, labels=g.labels))
    # the flip reaches [X_a, X_b] and [X_a, iX_b] first, in row a; rounding
    # of the re-expansion decides which of the two is named
    label_a, label_b = (re.escape(label) for label in (g.labels[a], g.labels[b]))
    with pytest.raises(ValueError, match=rf"commutator \[{label_a}, (i\*)?{label_b}\]"):
        build_gc_algebra(stand_in)


def test_gstar_exportable_as_json(entries):
    from poissonlie.lie import LieAlgebra

    doc = json.dumps(entries[2].gstar.to_json_dict())
    back = LieAlgebra.from_json_dict(json.loads(doc))
    assert np.array_equal(back.structure, entries[2].gstar.structure)


def test_cobracket_cprime_relations(entries):
    for entry in entries.values():
        dg = cobracket_on_gstar(entry.gstar, entry.g)
        dgp = cobracket_on_gstar(entry.gstar, gprime_algebra(entry))
        dgc = cobracket_on_gstar(entry.gstar, compact_algebra(entry))
        assert cprime_residual(entry, dg, dgp, +1.0) <= 1e-9
        assert cprime_residual(entry, dgc, dgp, -1.0) <= 1e-9
        assert np.max(np.abs(dg + dgc - 2.0 * dgp)) <= 1e-9
        for d in (dg, dgp, dgc):
            assert co_jacobi_worst_at(d)[0] <= 1e-9


def test_twist_element_antisymmetric_and_p_block(entries):
    entry = entries[2]
    s, asym = twist_element(entry)
    assert asym <= 1e-9
    assert np.array_equal(s, -np.swapaxes(s, -1, -2))
    # supported on the image of p: pairing columns against k must vanish
    gs = entry.gstar
    n = entry.g.dim
    pair = np.array([[np.trace(gs.realization[a] @ entry.g.realization[x]).imag
                      for x in range(n)] for a in range(gs.dim)])
    back = pair.T @ s @ pair   # bivector moved to g x g coordinates
    for i in range(entry.mp.dim_b):   # k-basis rows pair to zero
        assert np.max(np.abs(back[i, :])) <= 1e-9


def test_twist_check_passes(entries):
    for entry in entries.values():
        rep = twist_check_of(entry)
        assert set(rep) == {"antisymmetry", "maurer_cartan", "twist_relation"}
        assert worst(*rep.values()) <= 1e-9, (entry.p, rep)


def test_twist_scale_knob_documented(entries):
    # the Re-trace scale is a knob; the documented value 1/2 is pinned by the
    # twist relation and the doubled scale fails
    rep = twist_check_of(entries[1], scale=1.0)
    assert rep["twist_relation"] > 1e-3


def test_twist_negative_control(entries):
    rep = twist_check_of(entries[1], s_scale=2.0)
    assert rep["twist_relation"] > 1e-3


def test_twist_basis_independence(entries):
    # the p rows of the Cartan decomposition rotated by q, so the twist element
    # takes another orthonormal basis of p
    rng = np.random.default_rng(7)
    for entry in entries.values():
        p_rows = entry.cartan.parts["p"]
        k = p_rows.shape[0]
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            cartan = SubspaceDecomposition(entry.g, {"k": entry.cartan.parts["k"],
                                                     "p": q @ p_rows})
            rotated = dataclasses.replace(entry, cartan=cartan)
            rep = twist_check_of(rotated)
            assert worst(*rep.values()) <= 1e-9
            s1, _ = twist_element(entry)
            s2, _ = twist_element(rotated)
            assert np.max(np.abs(s1 - s2)) <= 1e-9
