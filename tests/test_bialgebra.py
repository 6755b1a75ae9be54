import warnings
from functools import cached_property

import numpy as np
import pytest

from poissonlie.bialgebra import (check_r_uniqueness, coboundary_worst_at,
                                  co_jacobi_worst_at, cocycle_1_worst_at,
                                  delta_consistency_worst_at,
                                  delta_direct, delta_from_eta,
                                  r_matrix, semidirect_algebra,
                                  uniqueness_generators)
from poissonlie.catalog import normalize_z, su11, supq1
from poissonlie.checks import run_check
from poissonlie.config import DEFAULT_TOL, FD_TOL, SVD_TOL
from poissonlie.lie import LieAlgebra, generated_dim
from poissonlie.linalg import worst
from references import c_coords, identity_element


@pytest.fixture(scope="module")
def e11():
    return su11()


@pytest.fixture(scope="module")
def e21():
    return supq1(2)


def test_build_e_b0_block_abelian(e11):
    k = e11.mp.dim_c
    assert np.max(np.abs(e11.mp.e_algebra.structure[:k, :k, :])) == 0.0


def test_build_e_planar_signs(e11):
    # |[J, P1]| = 2 on the P2 coordinate; our conventions give [J, P1] = -2 P2
    e = e11.mp.e_algebra
    br = e.structure[2, 0]     # e-basis (P1, P2, J)
    assert abs(br[1]) == pytest.approx(2.0, abs=1e-12)
    assert br[1] == pytest.approx(-2.0, abs=1e-12)
    br2 = e.structure[2, 1]
    assert br2[0] == pytest.approx(2.0, abs=1e-12)


def test_build_e_once_per_pair(e21):
    mp = e21.mp
    e, delta = mp.e_algebra, mp.delta
    assert mp.e_algebra is e and mp.delta is delta
    for table in (e.structure, delta):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1.0
    # the knobs copy before they corrupt: the shared tables are untouched
    from poissonlie.checks import REGISTRY

    before_e, before_delta = e.structure.copy(), delta.copy()
    for check in REGISTRY.values():
        if check.applies(e21):
            run_check(check.name, e21, 4, 0, DEFAULT_TOL, corrupt=check.knob)
    assert mp.e_algebra is e and mp.delta is delta
    assert np.array_equal(e.structure, before_e)
    assert np.array_equal(before_e, semidirect_algebra(mp).structure)
    assert np.array_equal(delta, before_delta)
    assert np.array_equal(before_delta, delta_direct(mp))


def test_build_e_jacobi_failure_signals(e11):
    # break the abelian block, [psi_0, psi_1] = 0.1 psi_0: Jacobi fails
    # against the b-action and the constructor raises
    e = e11.mp.e_algebra
    c = e.structure.copy()
    c[0, 1, 0] += 0.1
    c[1, 0, 0] -= 0.1
    with pytest.raises(ValueError, match="Jacobi identity violated"):
        LieAlgebra(e.space, c)


def test_build_e_ad_consistency_with_adE(e11):
    # finite difference of AdE along exp-curves at the identity equals ad of e
    from poissonlie.group import EElement, adE, exp_b
    from poissonlie.linalg import finite_diff

    mp = e11.mp
    k, m = mp.dim_c, mp.dim_b
    for i in range(k + m):
        def curve(t, i=i):
            if i < k:
                el = EElement(mp, t * np.eye(k)[i], identity_element(mp))
            else:
                el = EElement(mp, np.zeros(k), exp_b(mp, np.eye(m)[i - k], t))
            return adE(el).ravel()

        d = finite_diff(curve, 0.0, 1e-4).reshape(k + m, k + m)
        expect = mp.e_algebra.ad_matrix_coords(np.eye(k + m)[i])
        assert np.max(np.abs(d - expect)) <= FD_TOL


def test_delta_direct_planar_values(e11):
    delta = e11.mp.delta
    # delta(psi_a) = 0, delta(psi_2) = 2 psi_a ^ psi_2
    assert np.max(np.abs(delta[0])) == 0.0
    expect = np.zeros((3, 3))
    expect[0, 1], expect[1, 0] = 2.0, -2.0
    assert np.max(np.abs(delta[1] - expect)) <= 1e-12
    # delta(J) = -2 J ^ psi_a
    expect_j = np.zeros((3, 3))
    expect_j[0, 2], expect_j[2, 0] = 2.0, -2.0
    assert np.max(np.abs(delta[2] - expect_j)) <= 1e-12


def test_delta_su21_table(e21):
    delta = e21.mp.delta
    k = e21.mp.dim_c
    # delta(psi_a) = 0
    assert np.max(np.abs(delta[0])) <= 1e-12
    # delta(psi_R) = psi_a ^ psi_R, delta(psi_I) = psi_a ^ psi_I
    for idx in (2, 3):
        expect = np.zeros((k, k))
        expect[0, idx], expect[idx, 0] = 1.0, -1.0
        assert np.max(np.abs(delta[idx, :k, :k] - expect)) <= 1e-12
    # delta(psi_2) = 2 psi_a ^ psi_2 + 2 psi_R ^ psi_I: the first coefficient is
    # twice the published display, forced by the defining pairing
    expect = np.zeros((k, k))
    expect[0, 1], expect[1, 0] = 2.0, -2.0
    expect[2, 3], expect[3, 2] = 2.0, -2.0
    assert np.max(np.abs(delta[1, :k, :k] - expect)) <= 1e-12


def test_delta_two_routes_agree():
    for entry in (su11(), supq1(2), supq1(3)):
        assert delta_consistency_worst_at(entry.mp, entry.mp.delta)[0] <= FD_TOL


def test_delta_solves_pairing_equation(e21):
    # <delta(psi), y (x) y'> = <psi, [y, y']> on the fibre block, the defining
    # property behind the explicit double-sum formula
    mp = e21.mp
    delta = mp.delta
    k = mp.dim_c
    for i in range(k):
        for a in range(k):
            for b in range(k):
                lhs = delta[i, a, b]
                br = c_coords(mp, mp.g.bracket_coords(mp.y_basis[a], mp.y_basis[b]))
                assert abs(lhs - br[i]) <= 1e-12


def test_delta_linearity_zero(e11):
    delta = e11.mp.delta
    combo = sum((0.0 * d for d in delta), np.zeros((3, 3)))
    assert np.max(np.abs(combo)) == 0.0


def test_delta_from_eta_b0_direction_excites_only_b0_block(e11):
    delta = delta_from_eta(e11.mp)
    k = 2
    for i in range(k):
        c = delta[i]
        assert np.max(np.abs(c[k:, :])) <= 1e-9
        assert np.max(np.abs(c[:, k:])) <= 1e-9


def test_cobracket_axioms(e11, e21):
    for entry in (e11, e21):
        delta = entry.mp.delta
        assert worst(co_jacobi_worst_at(delta)[0], cocycle_1_worst_at(entry.mp, delta)[0]) <= 1e-9


def test_cobracket_axioms_trivial_for_abelian():
    assert co_jacobi_worst_at(np.zeros((2, 2, 2)))[0] == 0.0


def test_normalize_z(e11):
    # the normalized central element is ih/2: coords (0.5, 0, 0)
    assert np.allclose(e11.z, [0.5, 0, 0], atol=1e-12)
    # a rescaled candidate normalizes to the same element
    assert np.allclose(normalize_z(e11.g, e11.cartan, 3.0 * e11.z), e11.z, atol=1e-12)


def test_normalize_z_rejects_noncentral(e21):
    with pytest.raises(ValueError, match="not central"):
        normalize_z(e21.g, e21.cartan, e21.mp.y_basis[0])   # y_a is not central in k


def test_normalize_z_rejects_zero(e21):
    # 0 is central, but ad(0)^2 vanishes on p: the sign test rejects it
    # before the rescaling divides by anything
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not negative"):
            normalize_z(e21.g, e21.cartan, np.zeros(e21.g.dim))


def test_r_matrix_routes(e11, e21):
    for entry in (e11, e21):
        rm = r_matrix(entry)
        assert rm["difference"] <= 1e-9
        assert rm["relative_sign"] == 1.0
        assert rm["k_wedge_k0_block_residual"] <= 1e-12
        for route in (rm["route_a"], rm["route_b"]):
            assert np.array_equal(route, -np.swapaxes(route, -1, -2))


def test_r_matrix_planar_is_j_wedge_p2(e11):
    rm = r_matrix(e11)
    expect = np.zeros((3, 3))
    expect[2, 1], expect[1, 2] = 1.0, -1.0   # J ^ psi_2 exactly
    assert np.max(np.abs(rm["route_b"] - expect)) <= 1e-12
    assert np.max(np.abs(rm["route_a"] - expect)) <= 1e-12


def test_coboundary(e11, e21):
    for entry in (e11, e21):
        rm = r_matrix(entry)
        assert coboundary_worst_at(entry.mp, rm["route_b"])[0] <= 1e-9
        assert coboundary_worst_at(entry.mp, 2.0 * rm["route_b"])[0] > 1e-3


def test_uniqueness_kernel_zero(e11, e21):
    for entry in (e11, e21):
        rep = check_r_uniqueness(entry.mp, entry.torus)
        assert rep["kernel_dim"] == 0


def test_uniqueness_past_the_catalog():
    # p = 5 is past the named catalog and reachable only through supq1(p)
    entry = supq1(5)
    rep = check_r_uniqueness(entry.mp, entry.torus)
    assert rep["kernel_dim"] == 0


def test_uniqueness_negative_control(e11):
    rep = check_r_uniqueness(e11.mp, e11.torus, drop_b0_rows=True)
    assert rep["kernel_dim"] > 0


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_uniqueness_generators_generate_e(p):
    # su11-su41 and supq1(5); p = 8 runs in CI through `verify supq1 --p 8`
    e = supq1(p).mp.e_algebra
    assert generated_dim(e, uniqueness_generators(e.dim), SVD_TOL) == e.dim


def test_generated_dim_ranks_the_starting_pair(e11):
    e = e11.mp.e_algebra
    k, n = e11.mp.dim_c, e.dim
    x = np.eye(n)[k]                 # the b-basis vector: (x, 2x) spans a line
    assert generated_dim(e, np.stack([x, 2 * x]), SVD_TOL) == 1
    # two psi-basis vectors span an abelian subalgebra of b0
    assert generated_dim(e, np.eye(n)[:2], SVD_TOL) == 2


def test_uniqueness_fails_on_a_non_generating_pair(e21, monkeypatch):
    import poissonlie.bialgebra as bi

    n = e21.mp.e_algebra.dim
    monkeypatch.setattr(bi, "uniqueness_generators", lambda dim: np.eye(dim)[:2])
    rep = run_check("uniqueness", e21, 0, 42, DEFAULT_TOL)
    assert not rep["pass"]
    assert rep["details"]["generation_deficit"] == n - 2
    assert rep["max_residual"] == max(rep["details"]["kernel_dim"], n - 2)


def test_dual_bracket_satisfies_jacobi(e11):
    from poissonlie.lie import jacobi_worst_at

    dual = np.moveaxis(e11.mp.delta, 0, 2)
    assert jacobi_worst_at(dual)[0] <= 1e-9


def test_one_verify_builds_delta_once_and_normalizes_z_once(monkeypatch, tmp_path,
                                                            fresh_catalog):
    # every check, the conventions report and the text summary of one full
    # verify read the pair's one cobracket and the entry's one normalized z;
    # a second verify reads the same entry and builds nothing
    import poissonlie.bialgebra as bi
    import poissonlie.catalog as cat
    from poissonlie import cli

    calls = {"delta_direct": 0, "normalize_z": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(bi, "delta_direct")
    count(cat, "normalize_z")
    for _ in range(2):
        assert cli.main(["verify", "su41", "--out", str(tmp_path / "report.json")]) == 0
        assert calls == {"delta_direct": 1, "normalize_z": 1}


#: the tables a catalog entry builds on first use and keeps
ENTRY_TABLES = ("r_matrix", "gstar_g_pairing", "gc_algebra", "gprime_algebra",
                "model_table", "gstar_cobrackets")


def test_one_verify_builds_each_entry_table_once(monkeypatch, tmp_path, fresh_catalog):
    # the r-matrix (coboundary and the conventions report), the gstar-g
    # pairing (the twist element and both c' residuals), gC and g' as
    # algebras (manin, and g' for twist), the model table (deform) and the
    # three cobrackets on gstar (twist); a second verify builds none of them
    # again
    import poissonlie.catalog as cat
    from poissonlie import cli

    calls = {}
    for name in ENTRY_TABLES:
        build = getattr(cat.CatalogEntry, name).func

        def counted(entry, build=build, name=name):
            calls[name] = calls.get(name, 0) + 1
            return build(entry)
        prop = cached_property(counted)
        prop.__set_name__(cat.CatalogEntry, name)
        monkeypatch.setattr(cat.CatalogEntry, name, prop)
    for _ in range(2):
        assert cli.main(["verify", "su41", "--out", str(tmp_path / "report.json")]) == 0
        assert calls == dict.fromkeys(ENTRY_TABLES, 1)


def test_entry_tables_read_only_and_untouched_by_knobs(e21):
    from poissonlie.checks import REGISTRY
    from poissonlie.manin import (build_gc_algebra, cobracket_on_gstar, compact_algebra,
                                  g_structure_in_model_basis, gprime_algebra)

    built = {name: getattr(e21, name) for name in ENTRY_TABLES}
    rm, gc, gp = built["r_matrix"], built["gc_algebra"], built["gprime_algebra"]
    tables = (rm["route_a"], rm["route_b"], built["gstar_g_pairing"], gc.structure,
              *gc.realization, gp.structure,
              *gp.realization, *built["model_table"], *built["gstar_cobrackets"])
    before = [t.copy() for t in tables]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1.0
    for check in REGISTRY.values():
        if check.applies(e21):
            run_check(check.name, e21, 4, 0, DEFAULT_TOL, corrupt=check.knob)
    for name, table in built.items():
        assert getattr(e21, name) is table
    for table, copy in zip(tables, before):
        assert np.array_equal(table, copy)
    fresh = r_matrix(e21)
    assert np.array_equal(rm["route_b"], fresh["route_b"])
    assert rm["difference"] == fresh["difference"]
    assert np.array_equal(gc.structure, build_gc_algebra(e21).structure)
    assert np.array_equal(gp.structure, gprime_algebra(e21).structure)
    model = g_structure_in_model_basis(e21)
    assert np.array_equal(built["model_table"][0], model)
    halves = (e21.g, gprime_algebra(e21), compact_algebra(e21))
    for table, half in zip(built["gstar_cobrackets"], halves):
        assert np.array_equal(table, cobracket_on_gstar(e21.gstar, half))
